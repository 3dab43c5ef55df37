"""Malformed requests are a loud 4xx, never a ``500`` or a hang.

The requests are written on a raw socket: the client library never
sends a negative ``Content-Length``, closes its half of the connection
before the body it announced, stalls mid-request, or pads its headers.
"""

import asyncio
import json

from repro.control import ControlServer
from repro.control import server as server_module


async def raw_exchange(request: bytes) -> tuple[int, dict]:
    """Send ``request``, close the write side, parse the response."""
    server = ControlServer(controller=None)  # these requests never dispatch
    port = await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request)
        writer.write_eof()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
    finally:
        await server.stop()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def post(length: str, body: bytes) -> bytes:
    return (b"POST /deploy HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n" + body)


def test_negative_content_length_is_400():
    status, doc = asyncio.run(raw_exchange(post("-5", b'{"version": "v1"}')))
    assert status == 400
    assert doc == {"error": "bad-request", "detail": "bad content-length"}


def test_non_numeric_content_length_is_400():
    status, doc = asyncio.run(raw_exchange(post("ten", b"{}")))
    assert (status, doc["detail"]) == (400, "bad content-length")


def test_body_cut_short_by_eof_is_400():
    status, doc = asyncio.run(raw_exchange(post("40", b'{"version": ')))
    assert status == 400
    assert doc == {"error": "bad-request",
                   "detail": "body shorter than content-length"}


class StubFleet:
    """Just enough controller for ``GET /fleet``."""

    workers: list = []

    def fleet(self) -> dict:
        return {"workers": []}


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    head, _, body = (await reader.read()).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_stalled_body_gets_408_while_others_are_served(monkeypatch):
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.5)

    async def scenario():
        server = ControlServer(controller=StubFleet())
        port = await server.start()
        loop = asyncio.get_running_loop()
        try:
            # Declares 10 body bytes, sends 3, and keeps the socket open.
            stalled, stalled_w = await asyncio.open_connection("127.0.0.1", port)
            stalled_w.write(post("10", b'{"v'))
            await stalled_w.drain()
            started = loop.time()

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /fleet HTTP/1.1\r\nHost: x\r\n\r\n")
            writer.write_eof()
            fleet = await read_response(reader)
            fleet_s = loop.time() - started
            writer.close()

            timed_out = await asyncio.wait_for(read_response(stalled), 5.0)
            stalled_s = loop.time() - started
            stalled_w.close()
        finally:
            await server.stop()
        return fleet, fleet_s, timed_out, stalled_s

    fleet, fleet_s, timed_out, stalled_s = asyncio.run(scenario())
    assert fleet == (200, {"workers": []})
    assert fleet_s < 0.5  # answered while the other client stalls
    assert timed_out[0] == 408
    assert timed_out[1]["error"] == "timeout"
    assert stalled_s >= 0.5


def test_stalled_headers_get_408(monkeypatch):
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)

    async def scenario():
        server = ControlServer(controller=None)
        port = await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /fleet HTTP/1.1\r\nHost: x\r\n")  # no blank line
            await writer.drain()
            response = await asyncio.wait_for(read_response(reader), 5.0)
            writer.close()
        finally:
            await server.stop()
        return response

    status, doc = asyncio.run(scenario())
    assert status == 408


def test_too_many_header_lines_is_431():
    headers = b"".join(
        b"X-Pad-%d: 1\r\n" % i for i in range(server_module.MAX_HEADER_LINES)
    )
    request = b"GET /fleet HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n"
    status, doc = asyncio.run(raw_exchange(request))
    assert status == 431
    assert doc["error"] == "headers-too-large"


def test_header_lines_at_the_cap_are_read():
    headers = b"".join(
        b"X-Pad-%d: 1\r\n" % i for i in range(server_module.MAX_HEADER_LINES - 1)
    )
    request = b"GET /nowhere HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n"
    status, _ = asyncio.run(raw_exchange(request))
    assert status == 404  # parsed and dispatched, not refused


def test_connection_past_the_cap_is_503_until_one_closes(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    fleet = b"GET /fleet HTTP/1.1\r\nHost: x\r\n\r\n"

    async def exchange(port: int, request: bytes) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request)
        writer.write_eof()
        response = await asyncio.wait_for(read_response(reader), 5.0)
        writer.close()
        return response

    async def scenario():
        server = ControlServer(controller=StubFleet())
        port = await server.start()
        try:
            # Two idle sockets hold the cap: connected, nothing sent.
            idle = [await asyncio.open_connection("127.0.0.1", port)
                    for _ in range(2)]
            silent, silent_w = await asyncio.open_connection("127.0.0.1", port)
            refused_silent = await asyncio.wait_for(read_response(silent), 5.0)
            silent_w.close()
            refused = await exchange(port, fleet)
            # One idle socket hangs up; its slot is free once it is answered.
            reader, writer = idle[0]
            writer.write_eof()
            hung_up = await asyncio.wait_for(read_response(reader), 5.0)
            writer.close()
            served = await exchange(port, fleet)
            idle[1][1].close()
        finally:
            await server.stop()
        return refused_silent, refused, hung_up, served

    refused_silent, refused, hung_up, served = asyncio.run(scenario())
    assert refused_silent[0] == 503 and refused_silent[1]["error"] == "busy"
    assert refused[0] == 503  # a request sent before the refusal still reads it
    assert hung_up[0] == 400
    assert served == (200, {"workers": []})
