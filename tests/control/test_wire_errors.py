"""Malformed request bodies are a loud ``400``, never a ``500``.

The requests are written on a raw socket: the client library never
sends a negative ``Content-Length`` or closes its half of the
connection before the body it announced.
"""

import asyncio
import json

from repro.control import ControlServer


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
