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
unknown path is ``404``, anything unexpected is ``500``.  Every response body is
JSON; errors carry ``{"error": ..., "detail": ...}``.

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

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 409: "Conflict",
                413: "Payload Too Large", 500: "Internal Server Error"}


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
        try:
            outcome = await self._respond(reader)
        except Exception as exc:  # never let a handler kill the server
            outcome = (500, {"error": "internal", "detail": str(exc)})
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

    async def _respond(self, reader: asyncio.StreamReader):
        """Parse one request, dispatch it, and return (status, doc)."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return 400, {"error": "bad-request", "detail": "unreadable"}
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "bad-request", "detail": "malformed line"}
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]

        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                if not value.strip().isdecimal():  # digits only: no sign
                    return 400, {"error": "bad-request",
                                 "detail": "bad content-length"}
                length = int(value)
        if length > MAX_BODY:
            return 413, {"error": "too-large", "detail": f"body > {MAX_BODY}"}
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return 400, {"error": "bad-request",
                         "detail": "body shorter than content-length"}
        if body:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                return 400, {"error": "bad-json", "detail": str(exc)}
            if not isinstance(payload, dict):
                return 400, {"error": "bad-json",
                             "detail": "body must be a JSON object"}
        else:
            payload = {}

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
