"""Minimal asyncio HTTP server exposing a :class:`FleetController`.

Stdlib only — ``asyncio.start_server`` plus a hand-rolled HTTP/1.1
request parser — because the control plane's wire needs are tiny: four
endpoints, JSON bodies, one response per connection.

========  ===============  ================================================
method    path             body / effect
========  ===============  ================================================
GET       /fleet           -> fleet snapshot (totals, workers, series)
GET       /metrics         -> Prometheus text exposition: the process
                           registry plus every worker's serving counters
                           collected at scrape time
GET       /trace           -> buffered span events as JSON (empty unless
                           ``REPRO_OBS`` is set)
GET       /adaptation      -> adaptation-loop state (404 when no loop
                           is attached)
POST      /deploy          ``{"version": "v2", "gate": {...}?,
                           "workers": [...]?}`` -> rolling gated swap
POST      /rollback        ``{"workers": [...]?}`` -> instant revert
POST      /traffic-split   ``{"weights": {"w0": 4, ...}}`` -> new weights
========  ===============  ================================================

``/metrics`` is scrape-friendly during a rollout: deploy/settle spans
and the ``repro_control_ops_total`` counter are visible mid-deploy, and
serving counters come from a pull-model collector over the live
:class:`~repro.serving.stats.ServingStats` — so the endpoint is useful
even with observability off, and the packet path never pays for it.

Errors map onto status codes: a mutation racing an in-progress rollout
is ``409 Conflict`` (:class:`DeployConflict`), a bad request —
unknown version, malformed JSON, bad weights, a ``Content-Length``
that is not plain digits, a body cut short by EOF — is ``400``, an
unknown path is ``404``, anything unexpected is ``500``.  A request
that is not fully read (request line, headers and body) within
:data:`READ_DEADLINE_S` is ``408``, so a stalled client cannot hold a
handler open; more than :data:`MAX_HEADER_LINES` header lines is
``431``.  A connection opened while :data:`MAX_CONNECTIONS` others are
being handled is answered ``503`` at once and closed, unread.  Every
response body is JSON; errors carry ``{"error": ..., "detail": ...}``.

Example::

    server = ControlServer(controller, host="127.0.0.1", port=0)
    port = await server.start()        # 0 -> ephemeral, real port returned
    ...
    await server.stop()
"""

from __future__ import annotations

import asyncio
import json

from repro.control.telemetry import RegressionGate
from repro.errors import ControlError, DeployConflict, HomunculusError
from repro.obs.collectors import fleet_samples
from repro.obs.registry import get_registry, render_prometheus
from repro.obs.trace import get_tracer

#: Cap on accepted request bodies; control messages are tiny.
MAX_BODY = 1 << 20

#: Seconds a client gets to send its whole request before a ``408``.
READ_DEADLINE_S = 10.0

#: Cap on header lines per request; one more is a ``431``.
MAX_HEADER_LINES = 100

#: Cap on connections handled at once; one more is a ``503``.
MAX_CONNECTIONS = 64

#: Seconds a refused connection may take to finish sending before it is
#: closed (closing on unread bytes would reset it and lose the ``503``).
REFUSE_LINGER_S = 1.0

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 408: "Request Timeout",
                409: "Conflict", 413: "Payload Too Large",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}


class _Reject(Exception):
    """A request refused while it is read; carries the error response."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.response = (status, {"error": error, "detail": detail})


async def _read_request(reader: asyncio.StreamReader) -> tuple:
    """Read one request; return ``(method, path, payload)``.

    Raises :class:`_Reject` with the error response for a malformed one.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        raise _Reject(400, "bad-request", "unreadable") from None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise _Reject(400, "bad-request", "malformed line")
    method, path = parts[0].upper(), parts[1].split("?", 1)[0]

    length = 0
    headers = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        headers += 1
        if headers > MAX_HEADER_LINES:
            raise _Reject(431, "headers-too-large",
                          f"more than {MAX_HEADER_LINES} header lines")
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            if not value.strip().isdecimal():  # digits only: no sign
                raise _Reject(400, "bad-request", "bad content-length")
            length = int(value)
    if length > MAX_BODY:
        raise _Reject(413, "too-large", f"body > {MAX_BODY}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise _Reject(400, "bad-request",
                      "body shorter than content-length") from None
    if not body:
        return method, path, {}
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _Reject(400, "bad-json", str(exc)) from None
    if not isinstance(payload, dict):
        raise _Reject(400, "bad-json", "body must be a JSON object")
    return method, path, payload


def _response(status: int, doc,
              content_type: str = "application/json") -> bytes:
    """Render one response; ``doc`` is a JSON-able object or raw text."""
    if isinstance(doc, str):
        body = doc.encode("utf-8")
    else:
        body = json.dumps(doc).encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


class ControlServer:
    """Serve a :class:`FleetController` over localhost HTTP.

    The server shares the event loop with the workers it controls — a
    deploy handler awaits the rolling swap while traffic keeps flowing,
    and a second deploy arriving mid-rollout gets its 409 immediately
    (the conflict guard is synchronous).
    """

    def __init__(self, controller, host: str = "127.0.0.1",
                 port: int = 0, adaptation=None) -> None:
        if adaptation is not None and not hasattr(adaptation, "state"):
            raise ControlError(
                "adaptation must expose a state() method "
                "(an AdaptationLoop or compatible)"
            )
        self.controller = controller
        self.host = host
        self.port = int(port)
        self.adaptation = adaptation
        self._server: "asyncio.AbstractServer | None" = None
        self._open = 0  # connections being handled

    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        if self._server is not None:
            raise ControlError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if self._open >= MAX_CONNECTIONS:
            await self._refuse(reader, writer)
            return
        self._open += 1
        try:
            outcome = await self._respond(reader)
        except Exception as exc:  # never let a handler kill the server
            outcome = (500, {"error": "internal", "detail": str(exc)})
        finally:
            self._open -= 1
        status, doc = outcome[0], outcome[1]
        content_type = outcome[2] if len(outcome) > 2 else "application/json"
        try:
            writer.write(_response(status, doc, content_type))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _refuse(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Answer ``503`` without reading the request, then close."""

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            writer.write(_response(503, {
                "error": "busy",
                "detail": f"more than {MAX_CONNECTIONS} open connections"}))
            await writer.drain()
            writer.write_eof()
            await asyncio.wait_for(discard(), REFUSE_LINGER_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader):
        """Read one request within the deadline, dispatch it, and
        return (status, doc)."""
        try:
            method, path, payload = await asyncio.wait_for(
                _read_request(reader), READ_DEADLINE_S
            )
        except asyncio.TimeoutError:
            return 408, {"error": "timeout",
                         "detail": f"request not read within {READ_DEADLINE_S} s"}
        except _Reject as exc:
            return exc.response

        try:
            return await self._dispatch(method, path, payload)
        except DeployConflict as exc:
            return 409, {"error": "conflict", "detail": str(exc)}
        except (ControlError, HomunculusError) as exc:
            return 400, {"error": "bad-request", "detail": str(exc)}

    async def _dispatch(self, method: str, path: str, payload: dict):
        controller = self.controller
        if path == "/fleet":
            if method != "GET":
                return 405, {"error": "method", "detail": "GET /fleet"}
            return 200, controller.fleet()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method", "detail": "GET /metrics"}
            text = render_prometheus(
                get_registry().snapshot(),
                extra_samples=fleet_samples(controller.workers),
            )
            return 200, text, PROMETHEUS_CONTENT_TYPE
        if path == "/trace":
            if method != "GET":
                return 405, {"error": "method", "detail": "GET /trace"}
            tracer = get_tracer()
            return 200, {"events": list(tracer.events)}
        if path == "/adaptation":
            if method != "GET":
                return 405, {"error": "method", "detail": "GET /adaptation"}
            if self.adaptation is None:
                return 404, {"error": "not-found",
                             "detail": "no adaptation loop attached"}
            return 200, self.adaptation.state()
        if path == "/deploy":
            if method != "POST":
                return 405, {"error": "method", "detail": "POST /deploy"}
            if "version" not in payload:
                raise ControlError("deploy needs a 'version'")
            gate = (RegressionGate.from_dict(payload["gate"])
                    if payload.get("gate") else None)
            report = await controller.deploy(
                payload["version"], gate=gate,
                workers=payload.get("workers"),
            )
            return 200, report
        if path == "/rollback":
            if method != "POST":
                return 405, {"error": "method", "detail": "POST /rollback"}
            return 200, await controller.rollback(payload.get("workers"))
        if path == "/traffic-split":
            if method != "POST":
                return 405, {"error": "method",
                             "detail": "POST /traffic-split"}
            if "weights" not in payload:
                raise ControlError("traffic-split needs 'weights'")
            return 200, {"ok": True,
                         "weights": controller.traffic_split(
                             payload["weights"])}
        return 404, {"error": "not-found", "detail": path}


async def serve_fleet(controller, source, until, host: str = "127.0.0.1",
                      port: int = 0, adaptation=None) -> list:
    """Serve ``controller``'s fleet behind a :class:`ControlServer`.

    Starts every worker on ``source(stop)`` (see
    :func:`~repro.control.controller.start_workers`), then
    ``adaptation.run(stop)`` when a loop is given, then the server, and
    awaits ``until(port)``.  However that ends, the workers, the loop
    and the server are stopped; returns the dead workers as
    :func:`~repro.control.controller.stop_workers` does.
    """
    from repro.control.controller import start_workers, stop_workers

    stop = asyncio.Event()
    workers = list(controller.workers.values())
    start_workers(workers, lambda worker: source(stop))
    loop_task = (asyncio.create_task(adaptation.run(stop))
                 if adaptation is not None else None)
    server = ControlServer(controller, host=host, port=port,
                           adaptation=adaptation)
    try:
        await until(await server.start())
    finally:
        dead = await stop_workers(workers, stop)
        if loop_task is not None:
            await loop_task
        await server.stop()
    return dead
