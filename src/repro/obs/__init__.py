"""Unified observability plane: metrics registry, span tracer, exporters.

One queryable account of what every plane — search, serving, control —
is doing and how long it takes.  Three pieces:

* :mod:`repro.obs.registry` — labeled Counter/Histogram
  instruments in a process-wide :class:`MetricsRegistry`, with
  snapshot-to-dict, multi-process merge, and Prometheus text
  exposition for ``GET /metrics``.
* :mod:`repro.obs.trace` — ``span("distrib.unit", model=...)`` context
  managers buffering structured timing events (JSONL sink, Chrome
  ``trace_event`` export for ``chrome://tracing``/Perfetto).
* :mod:`repro.obs.collectors` — pull-model re-exposure of embedded
  telemetry (:class:`~repro.serving.stats.ServingStats`) at scrape
  time, so the packet path never pays for the endpoint.
* :func:`flush_obs` / :func:`flush_on_exit` — persist a run's
  ``metrics.json`` and span sink, also on SIGINT/SIGTERM; the
  :mod:`~repro.obs.trace` readers render them back for ``cli obs``.

Everything is gated by the ``REPRO_OBS`` environment variable and
engineered so the disabled mode is free (shared no-op singletons, zero
allocations on the packet path) and the enabled mode never perturbs
results (clock reads only — search histories and serving outputs stay
bit-identical; the test suite enforces both).
"""

from __future__ import annotations

import contextlib
import os
import signal

from repro.fsio import atomic_write_json
from repro.obs.collectors import fleet_samples, serving_samples
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    REGISTRY,
    enabled,
    get_registry,
    merge_snapshots,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    export_trace,
    get_tracer,
    load_events,
    obs_dir,
    reset_tracer,
    summarize_artifacts,
    tail_events,
    to_chrome_trace,
    validate_chrome_trace,
    write_sharded_obs,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Tracer",
    "enabled",
    "get_registry",
    "get_tracer",
    "merge_snapshots",
    "parse_prometheus",
    "render_prometheus",
    "reset_tracer",
    "serving_samples",
    "fleet_samples",
    "load_events",
    "obs_dir",
    "to_chrome_trace",
    "validate_chrome_trace",
    "export_trace",
    "flush_obs",
    "flush_on_exit",
    "install_obs_flush",
    "summarize_artifacts",
    "tail_events",
    "write_sharded_obs",
]


def flush_obs(directory: "str | None" = None) -> "str | None":
    """Persist the current obs state to disk; returns the snapshot path.

    Writes ``<dir>/metrics.json`` (atomic replace, so a reader never
    sees a torn file) and fsyncs the process trace sink.  A no-op
    returning ``None`` when observability is disabled — safe to call
    unconditionally from signal handlers and ``finally`` blocks.
    """
    if not enabled():
        return None
    directory = directory or obs_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "metrics.json")
    atomic_write_json(path, REGISTRY.snapshot())
    get_tracer().flush()
    return path


def install_obs_flush():
    """SIGINT/SIGTERM -> flush obs artifacts, then normal teardown.

    SIGINT becomes the usual :class:`KeyboardInterrupt` and SIGTERM a
    :class:`SystemExit`, so ``finally`` blocks (worker drain, server
    stop) still run — the handler only guarantees the metrics snapshot
    and trace sink hit disk first, even if teardown later dies.

    Returns a restore callable; no-op outside the main thread (signal
    handlers can only be installed there).
    """

    def handler(signum, frame):
        flush_obs()
        if signum == getattr(signal, "SIGINT", None):
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    previous = {}
    for name in ("SIGINT", "SIGTERM"):
        sig = getattr(signal, name, None)
        if sig is None:
            continue
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # not the main thread
            pass

    def restore():
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    return restore


@contextlib.contextmanager
def flush_on_exit():
    """Run a block with :func:`install_obs_flush` armed; on the way out
    (normally, by exception or by signal) flush and restore handlers."""
    restore = install_obs_flush()
    try:
        yield
    finally:
        flush_obs()
        restore()
