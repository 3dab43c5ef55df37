"""Span tracer: structured timing events for cross-plane timelines.

A *span* is one named, timed region — a family compile, a work-unit
claim→run→complete, a batch inference, a rolling deploy — recorded as a
plain dict::

    {"name": "distrib.unit", "ts": 1718812800.01, "dur": 2.31,
     "pid": 4242, "tid": 131072, "args": {"model": "anomaly", ...}}

``ts`` is a wall-clock :func:`time.time` stamp (so spans from different
machines line up on one timeline), ``dur`` comes from
:func:`time.perf_counter` deltas (monotonic, immune to NTP steps).
Neither clock read touches any RNG or reorders any work — the
bit-identity invariant the whole plane is tested against.

The :class:`Tracer` buffers events in memory and can mirror them to a
JSONL sink (one ``os.write`` of a whole line with ``O_APPEND``, so
concurrent processes interleave lines, never bytes).  Shard workers
run a *local* tracer per :func:`~repro.distrib.worker.run_shard` call
and ship its events home inside ``ShardResult`` — the merge layer then
assembles a fleet-wide timeline without any shared sink.

Export to the Chrome ``trace_event`` viewer format (load in
``chrome://tracing`` or https://ui.perfetto.dev) is
:func:`to_chrome_trace`; ``tools/trace2chrome.py`` and ``cli obs
export`` wrap it.

Usage::

    tracer = get_tracer()              # NULL_TRACER unless REPRO_OBS=1
    with tracer.span("compile.family", model=spec.name, family="mlp"):
        ...                            # timed region

Disabled mode hands back shared singletons: ``span()`` returns one
reusable no-op context manager, so a traced-off call site costs a
single attribute lookup and no allocation.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.errors import HomunculusError
from repro.fsio import atomic_write_json
from repro.obs.registry import REGISTRY, enabled

__all__ = [
    "NULL_TRACER",
    "Tracer",
    "export_trace",
    "get_tracer",
    "load_events",
    "summarize_artifacts",
    "tail_events",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_sharded_obs",
]

#: Default directory (under the cwd) for obs artifacts when a sink path
#: is requested without an explicit location.
OBS_DIR_ENV = "REPRO_OBS_DIR"
DEFAULT_OBS_DIR = "obs"


def obs_dir() -> str:
    """The directory for obs artifacts (``REPRO_OBS_DIR`` or ``obs``)."""
    return os.environ.get(OBS_DIR_ENV, "").strip() or DEFAULT_OBS_DIR


class _Span:
    """One in-flight timed region; re-entrant use gets a fresh span."""

    __slots__ = ("_tracer", "name", "args", "_t0", "_wall")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._t0 = 0.0
        self._wall = 0.0

    def __enter__(self) -> "_Span":
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._t0
        if exc_type is not None:
            self.args = dict(self.args)
            self.args["error"] = exc_type.__name__
        self._tracer._record(self.name, self._wall, dur, self.args)
        return None


class Tracer:
    """Buffers span events; optionally mirrors them to a JSONL sink.

    ``counter_registry`` (default: the process :data:`~repro.obs.registry.REGISTRY`)
    receives a ``repro_spans_total{name=...}`` increment per finished
    span — that is how merged metrics snapshots can assert "one
    ``distrib.unit`` span per planned unit" without re-parsing traces.
    """

    def __init__(self, sink_path: "str | None" = None,
                 counter_registry=None) -> None:
        self.events: list = []
        self._lock = threading.Lock()
        self._sink_fd: "int | None" = None
        self._sink_path = sink_path
        self._registry = REGISTRY if counter_registry is None else counter_registry
        if sink_path is not None:
            parent = os.path.dirname(sink_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._sink_fd = os.open(
                sink_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )

    def span(self, name: str, **args) -> _Span:
        """A context manager timing one region; ``args`` become the
        span's key/value annotations."""
        return _Span(self, name, args)

    def _record(self, name: str, wall: float, dur: float, args: dict) -> None:
        event = {
            "name": name,
            "ts": wall,
            "dur": dur,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self.events.append(event)
            if self._sink_fd is not None:
                line = json.dumps(event, sort_keys=True) + "\n"
                os.write(self._sink_fd, line.encode("utf-8"))
        self._registry.counter(
            "repro_spans_total",
            help="finished spans by name",
            labels=("name",),
        ).labels(name=name).inc()

    def flush(self) -> None:
        """fsync the sink (if any) so a crash loses nothing buffered."""
        with self._lock:
            if self._sink_fd is not None:
                os.fsync(self._sink_fd)

    def close(self) -> None:
        with self._lock:
            if self._sink_fd is not None:
                os.close(self._sink_fd)
                self._sink_fd = None

    def drain(self) -> list:
        """Return all buffered events and clear the buffer."""
        with self._lock:
            events, self.events = self.events, []
        return events

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _NullSpan:
    """Shared no-op span: enter/exit do nothing, no state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``span()`` returns one shared no-op context."""

    __slots__ = ()

    events: list = []

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def drain(self) -> list:
        return []


#: The shared disabled tracer.
NULL_TRACER = NullTracer()

_PROCESS_TRACER: "Tracer | None" = None
_PROCESS_LOCK = threading.Lock()


def get_tracer():
    """The process-wide tracer when observability is on, else
    :data:`NULL_TRACER`.

    The real tracer is created lazily on first enabled call, with a
    JSONL sink at ``<obs_dir>/trace.jsonl``; shard workers and tests
    that need isolation construct their own :class:`Tracer` instead.
    """
    if not enabled():
        return NULL_TRACER
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:
        with _PROCESS_LOCK:
            if _PROCESS_TRACER is None:
                _PROCESS_TRACER = Tracer(
                    sink_path=os.path.join(obs_dir(), "trace.jsonl")
                )
    return _PROCESS_TRACER


def reset_tracer() -> None:
    """Drop the process tracer (test isolation)."""
    global _PROCESS_TRACER
    with _PROCESS_LOCK:
        if _PROCESS_TRACER is not None:
            _PROCESS_TRACER.close()
        _PROCESS_TRACER = None


# --------------------------------------------------------------------------- #
# loading and export: what ``cli obs`` reads back from a run's obs dir
# --------------------------------------------------------------------------- #
def load_events(path: str) -> list:
    """Read a JSONL trace sink back into a list of event dicts."""
    events: list = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                raise HomunculusError(
                    f"{path}:{lineno}: unparseable trace line"
                )
            events.append(event)
    return events


def to_chrome_trace(events: list) -> dict:
    """Convert span events to the Chrome ``trace_event`` JSON format.

    Each span becomes an ``"X"`` (complete) event; ``ts``/``dur`` are
    microseconds per the format.  The category is the span name's first
    dotted component (``distrib.unit`` → cat ``distrib``), which the
    viewers use for per-plane filtering.
    """
    trace_events = []
    for event in events:
        name = event["name"]
        trace_events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round(event["ts"] * 1e6, 3),
            "dur": round(event["dur"] * 1e6, 3),
            "pid": event.get("pid", 0),
            "tid": event.get("tid", 0),
            "args": event.get("args", {}),
        })
    trace_events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> list:
    """Schema-check a Chrome trace document; returns problem strings.

    Used by the obs-smoke CI job and the export tests: an empty return
    means every event has the required keys with sane types.
    """
    problems: list = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["missing traceEvents wrapper"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("name", str), ("cat", str), ("ph", str),
                           ("ts", (int, float)), ("dur", (int, float)),
                           ("pid", int), ("tid", int)):
            if key not in event:
                problems.append(f"{where}: missing {key}")
            elif not isinstance(event[key], kinds):
                problems.append(f"{where}: bad type for {key}")
        if event.get("ph") != "X":
            problems.append(f"{where}: phase {event.get('ph')!r} != 'X'")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append(f"{where}: negative dur")
    return problems


def summarize_artifacts(directory: str) -> str:
    """The metrics snapshot and per-name span counts under ``directory``."""
    metrics_path = os.path.join(directory, "metrics.json")
    trace_path = os.path.join(directory, "trace.jsonl")
    lines: list = []
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        lines.append(f"metrics ({metrics_path}):")
        for name in sorted(snapshot):
            family = snapshot[name]
            for label_key in sorted(family.get("samples", {})):
                value = family["samples"][label_key]
                if family.get("kind") == "histogram":
                    value = f"count={value['count']} sum={value['sum']:.6g}"
                labels = ",".join(f"{k}={v}" for k, v in json.loads(label_key))
                suffix = f"{{{labels}}}" if labels else ""
                lines.append(f"  {name}{suffix} = {value}")
    if os.path.exists(trace_path):
        counts: dict = {}
        total = 0.0
        for event in load_events(trace_path):
            counts[event["name"]] = counts.get(event["name"], 0) + 1
            total += event.get("dur", 0.0)
        lines.append(f"spans ({trace_path}): {sum(counts.values())} events, "
                     f"{total:.3f} s total")
        lines.extend(f"  {name} x {counts[name]}" for name in sorted(counts))
    if not lines:
        raise HomunculusError(f"nothing recorded under {directory!r} "
                              f"(run with REPRO_OBS=1 first)")
    return "\n".join(lines)


def tail_events(directory: str, n: int) -> list:
    """One line per span for the ``n`` most recent spans (none for 0)."""
    trace_path = os.path.join(directory, "trace.jsonl")
    if not os.path.exists(trace_path):
        raise HomunculusError(f"no trace at {trace_path!r}")
    events = load_events(trace_path)
    lines = []
    for event in events[-n:] if n else []:
        detail = " ".join(
            f"{k}={v}" for k, v in sorted((event.get("args") or {}).items()))
        lines.append(f"{event['ts']:.6f} {event['name']} "
                     f"dur={event['dur'] * 1e3:.3f}ms"
                     + (f" {detail}" if detail else ""))
    return lines


def export_trace(paths: list, out_path: str) -> int:
    """Fold span sinks into one validated Chrome trace at ``out_path``.

    Returns the number of events written.  A missing input, or a
    document that fails validation (one problem per line), raises.
    """
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise HomunculusError(f"no trace at {missing[0]!r}")
    events: list = []
    for path in paths:
        events.extend(load_events(path))
    doc = to_chrome_trace(events)
    problems = validate_chrome_trace(doc)
    if problems:
        raise HomunculusError("\n".join(problems))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return len(doc["traceEvents"])


def write_sharded_obs(obs: dict) -> "str | None":
    """Write a sharded run's merged obs artifacts; returns a summary line.

    Spans pooled from every shard land as a Chrome trace plus the merged
    metrics snapshot under the obs dir, so ``cli obs summary`` and
    ``chrome://tracing`` both work on a fleet run.  ``None`` (and
    nothing written) when the run recorded no spans.
    """
    spans = obs.get("spans") or []
    if not spans:
        return None
    directory = obs_dir()
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "metrics.json"),
                      obs.get("metrics", {}))
    with open(os.path.join(directory, "trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump(to_chrome_trace(spans), handle, indent=1, sort_keys=True)
    timeline = obs.get("timeline", {})
    return (f"obs: {len(spans)} spans from {len(timeline.get('shards', []))} "
            f"shard(s) -> {directory} (critical path "
            f"{timeline.get('critical_path_s', 0.0):.3f} s)")
