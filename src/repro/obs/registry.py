"""Process-wide metrics registry: labeled counters, gauges, histograms.

The telemetry the repo already keeps is *embedded* — ring buffers inside
:class:`~repro.serving.stats.ServingStats`, hit/miss counters on
:class:`~repro.bayesopt.cache.EvaluationCache` — which is perfect
for the component that owns it and useless for an operator who wants one
queryable account of the whole process.  This module adds that account:
a :class:`MetricsRegistry` of named, labeled instruments that any
subsystem can increment, snapshot to a plain dict, merge across
processes (shard workers ship their snapshots home inside
:class:`~repro.distrib.worker.ShardResult`), and render in the
Prometheus text exposition format for ``GET /metrics``.

Three instruments, the classic trio:

* :class:`Counter` — monotonically increasing float (``_total`` names),
* :class:`Gauge` — a settable level (queue depth, fleet size),
* :class:`Histogram` — log-binned observation buckets, rendered as
  cumulative Prometheus ``_bucket`` samples.  It is the one log-binned
  histogram in the tree: serving latency
  (:class:`~repro.serving.stats.ServingStats`) records into it too.

Zero-cost no-op mode
--------------------
Observability must never tax the packet path when it is off.
:func:`enabled` reads the ``REPRO_OBS`` environment variable;
:func:`get_registry` returns the real process registry when it is
truthy and the :data:`NULL_REGISTRY` otherwise.  Every null instrument
is a shared singleton whose methods do nothing and whose ``labels()``
returns itself — no allocation, no branching beyond one attribute call.
Hot loops additionally cache the ``enabled()`` verdict once at setup
(see ``AsyncStreamEngine``), so a disabled run executes the exact
pre-observability code path.

Example::

    reg = get_registry()                  # NULL_REGISTRY unless REPRO_OBS=1
    hits = reg.counter("repro_bo_cache_hits_total",
                       help="evaluations served from the cache")
    hits.inc()
    reg.counter("repro_queue_events_total", labels=("event",)) \\
       .labels(event="claim").inc()
    snap = reg.snapshot()                 # JSON-friendly dict
    text = render_prometheus(snap)        # the /metrics body
"""

from __future__ import annotations

import json
import os
import re
import threading

import numpy as np

from repro.errors import HomunculusError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "enabled",
    "get_registry",
    "merge_snapshots",
    "parse_prometheus",
    "render_prometheus",
]

#: Environment switch for the whole observability plane.
OBS_ENV = "REPRO_OBS"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def enabled() -> bool:
    """True when the ``REPRO_OBS`` environment variable is truthy.

    Read dynamically (not cached at import) so tests and subprocesses
    control it per run; call sites on hot paths should capture the
    verdict once at setup rather than per event.
    """
    return os.environ.get(OBS_ENV, "").strip().lower() not in (
        "", "0", "false", "no", "off"
    )


# --------------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------------- #
class Counter:
    """A monotonically increasing value.  ``inc`` only; never reset."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise HomunculusError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A settable level (may go up or down)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Log-binned histogram with online percentiles and bucket export.

    Fixed log-spaced bins (default 1 us .. 100 s, 16 per decade) bound
    memory while keeping relative error a few percent per bin — the
    trade an HDR-style telemetry register file makes in hardware.  A
    value lands in the first bin whose upper edge ``le`` satisfies
    ``value <= le`` (the Prometheus rule), so :meth:`buckets` is the
    cumulative ``_bucket`` series as is and :meth:`percentile` answers
    with the upper edge of a bin.  ``_counts`` holds one underflow bin
    (``value <= low``), one bin per edge interval, and one overflow bin
    (``value > high``).

    Example::

        h = Histogram()
        h.observe(0.0042)                  # one 4.2 ms sample
        h.observe_batch([1e-4, 2e-4])      # vectorized
        h.percentile(99)                   # upper edge of the p99 bin
        h.buckets()[-1]                    # ["+Inf", 3]
    """

    def __init__(
        self,
        low: float = 1e-6,
        high: float = 100.0,
        bins_per_decade: int = 16,
    ) -> None:
        if not 0 < low < high:
            raise HomunculusError("histogram needs 0 < low < high")
        if bins_per_decade < 1:
            raise HomunculusError("bins_per_decade must be >= 1")
        decades = np.log10(high / low)
        n_bins = max(1, int(round(decades * bins_per_decade)))
        self._edges = np.geomspace(low, high, n_bins + 1)
        self._counts = np.zeros(n_bins + 2, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.min = float("inf")

    def observe(self, value: float) -> None:
        value = max(float(value), 0.0)
        self._counts[int(np.searchsorted(self._edges, value, side="left"))] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def observe_batch(self, values) -> None:
        """Vectorized :meth:`observe` over an array of values."""
        values = np.maximum(np.asarray(values, dtype=float), 0.0)
        if values.size == 0:
            return
        bins = np.searchsorted(self._edges, values, side="left")
        self._counts += np.bincount(bins, minlength=self._counts.size)
        self.count += int(values.size)
        self.sum += float(values.sum())
        self.max = max(self.max, float(values.max()))
        self.min = min(self.min, float(values.min()))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper edge of the bin holding the ``q``-th percentile (0..100)."""
        if not 0 <= q <= 100:
            raise HomunculusError(f"percentile wants 0..100, got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        index = int(np.searchsorted(np.cumsum(self._counts), rank, side="left"))
        if index >= len(self._edges):
            return self.max
        return float(self._edges[index])

    def buckets(self) -> list:
        """Cumulative ``[le, count]`` pairs, ending with ``["+Inf", n]``.

        Read from one copy of the bins, so the series stays monotone
        even while another thread observes.
        """
        running = np.cumsum(self._counts.copy()).tolist()
        return ([[float(edge), n] for edge, n in zip(self._edges, running)]
                + [["+Inf", running[-1]]])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric and its per-label-set children."""

    __slots__ = ("name", "kind", "help", "label_names", "children",
                 "_kwargs", "_lock")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple, **kwargs) -> None:
        if not _NAME_RE.match(name):
            raise HomunculusError(f"bad metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise HomunculusError(f"bad label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.children: dict = {}
        self._kwargs = kwargs
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.label_names):
            raise HomunculusError(
                f"{self.name}: labels() wants exactly {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self.children.get(key)
        if child is None:
            with self._lock:
                child = self.children.setdefault(
                    key, _KINDS[self.kind](**self._kwargs)
                )
        return child

    def default(self):
        """The unlabeled child (only for label-less families)."""
        return self.labels()


class MetricsRegistry:
    """A process-wide collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the help text and label names, later calls return the
    same family (mismatched redeclarations raise).  Label-less families
    return the instrument directly; labeled families return the family,
    whose :meth:`_Family.labels` yields children.
    """

    def __init__(self) -> None:
        self._families: dict = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str,
                labels: tuple, **kwargs) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _Family(name, kind, help, tuple(labels), **kwargs)
                    self._families[name] = family
        if family.kind != kind or family.label_names != tuple(labels):
            raise HomunculusError(
                f"metric {name!r} redeclared as {kind}{tuple(labels)} "
                f"(existing: {family.kind}{family.label_names})"
            )
        return family

    def counter(self, name: str, help: str = "", labels: tuple = ()):
        family = self._family(name, "counter", help, labels)
        return family if labels else family.default()

    def gauge(self, name: str, help: str = "", labels: tuple = ()):
        family = self._family(name, "gauge", help, labels)
        return family if labels else family.default()

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  low: float = 1e-6, high: float = 100.0,
                  bins_per_decade: int = 16):
        family = self._family(name, "histogram", help, labels,
                              low=low, high=high,
                              bins_per_decade=bins_per_decade)
        return family if labels else family.default()

    def clear(self) -> None:
        """Drop every family (test isolation; production never resets)."""
        with self._lock:
            self._families.clear()

    # -- snapshot / merge ---------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as a JSON-friendly dict.

        Label sets are keyed by a JSON array of ``[name, value]`` pairs
        in declaration order, so snapshots are mergeable and stable
        across processes.
        """
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples: dict = {}
            for key in sorted(family.children):
                child = family.children[key]
                label_key = json.dumps(
                    [[n, v] for n, v in zip(family.label_names, key)]
                )
                if family.kind == "histogram":
                    samples[label_key] = {
                        "buckets": child.buckets(),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    samples[label_key] = child.value
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        return out


def merge_snapshots(snapshots: list) -> dict:
    """Fold several :meth:`MetricsRegistry.snapshot` dicts into one.

    The multi-process merge: counters and histogram buckets/sums/counts
    add; gauges keep the last writer (snapshot order is caller-defined,
    e.g. shard order, so the merge is deterministic).  Families missing
    from some snapshots merge fine — a worker that never touched a
    metric simply contributes nothing.
    """
    merged: dict = {}
    for snap in snapshots:
        for name, family in snap.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "labels": list(family["labels"]),
                    "samples": {k: _copy_sample(v)
                                for k, v in family["samples"].items()},
                }
                continue
            if into["kind"] != family["kind"]:
                raise HomunculusError(
                    f"cannot merge metric {name!r}: kind "
                    f"{family['kind']} vs {into['kind']}"
                )
            for key, value in family["samples"].items():
                have = into["samples"].get(key)
                if have is None:
                    into["samples"][key] = _copy_sample(value)
                elif family["kind"] == "counter":
                    into["samples"][key] = have + value
                elif family["kind"] == "gauge":
                    into["samples"][key] = value
                else:
                    into["samples"][key] = _merge_histogram(have, value)
    return merged


def _copy_sample(value):
    if isinstance(value, dict):
        return {"buckets": [list(b) for b in value["buckets"]],
                "sum": value["sum"], "count": value["count"]}
    return value


def _merge_histogram(a: dict, b: dict) -> dict:
    edges_a = [edge for edge, _ in a["buckets"]]
    edges_b = [edge for edge, _ in b["buckets"]]
    if edges_a != edges_b:
        raise HomunculusError("cannot merge histograms with different buckets")
    return {
        "buckets": [[edge, ca + cb] for (edge, ca), (_, cb)
                    in zip(a["buckets"], b["buckets"])],
        "sum": a["sum"] + b["sum"],
        "count": a["count"] + b["count"],
    }


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value) -> str:
    if value == "+Inf":
        return "+Inf"
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(pairs: list) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: dict, extra_samples: "list | None" = None) -> str:
    """Render a snapshot (plus optional collector samples) as text format.

    ``extra_samples`` is a list of ``(name, kind, help, label_pairs,
    value)`` tuples for metrics that live outside the registry — e.g.
    the control server re-exposing each worker's
    :class:`~repro.serving.stats.ServingStats` at scrape time (a pull,
    so the packet path never pays for it).  A ``histogram`` sample's
    value is a ``{"buckets", "sum", "count"}`` dict, the same shape a
    snapshot holds.
    """
    lines: list = []
    seen_headers: set = set()

    def header(name: str, kind: str, help: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help:
            lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")

    def emit(name: str, kind: str, pairs: list, value) -> None:
        if kind != "histogram":
            lines.append(f"{name}{_label_str(pairs)} {_format_value(value)}")
            return
        for le, count in value["buckets"]:
            bucket_pairs = pairs + [["le", _format_value(le)]]
            lines.append(f"{name}_bucket{_label_str(bucket_pairs)} {int(count)}")
        lines.append(f"{name}_sum{_label_str(pairs)} "
                     f"{_format_value(value['sum'])}")
        lines.append(f"{name}_count{_label_str(pairs)} {int(value['count'])}")

    for name, family in sorted(snapshot.items()):
        header(name, family["kind"], family["help"])
        for label_key, value in family["samples"].items():
            emit(name, family["kind"], json.loads(label_key), value)
    for name, kind, help, pairs, value in (extra_samples or ()):
        header(name, kind, help)
        emit(name, kind, [list(pair) for pair in pairs], value)
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus(text: str) -> dict:
    """Parse text exposition into ``{(name, labels_tuple): value}``.

    A deliberately strict reader used by tests and the control-smoke
    scrape validation: malformed sample lines, bad label syntax, and
    non-numeric values raise :class:`HomunculusError` instead of being
    skipped, so a formatting regression in :func:`render_prometheus`
    cannot hide.  ``labels_tuple`` is a sorted tuple of ``(label,
    value)`` pairs with escapes resolved.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise HomunculusError(f"unparseable exposition line: {line!r}")
        raw_labels = match.group("labels")
        pairs: list = []
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                value = re.sub(
                    r"\\(.)",
                    lambda m: {"n": "\n"}.get(m.group(1), m.group(1)),
                    pair.group("value"),
                )
                pairs.append((pair.group("name"), value))
                consumed = pair.end()
                if consumed < len(raw_labels):
                    if raw_labels[consumed] != ",":
                        raise HomunculusError(
                            f"bad label separator in line: {line!r}")
                    consumed += 1
            if consumed < len(raw_labels):
                raise HomunculusError(f"trailing label garbage: {line!r}")
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise HomunculusError(
                    f"non-numeric sample value in line: {line!r}")
        key = (match.group("name"), tuple(sorted(pairs)))
        if key in samples:
            raise HomunculusError(f"duplicate sample: {key}")
        samples[key] = value
    return samples


# --------------------------------------------------------------------------- #
# the no-op twins
# --------------------------------------------------------------------------- #
class _NullInstrument:
    """Shared do-nothing instrument: every method is a no-op returning
    ``self``/``None``, and ``labels()`` returns the same singleton, so a
    disabled call chain allocates nothing."""

    __slots__ = ()

    def labels(self, **labels) -> "_NullInstrument":
        return self

    def default(self) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: hands out the shared null instrument."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", labels: tuple = ()):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: tuple = ()):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  **kwargs):
        return _NULL_INSTRUMENT

    def clear(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


#: The process registry (always real — whether call sites reach it is
#: gated by :func:`get_registry`).
REGISTRY = MetricsRegistry()

#: The shared disabled registry.
NULL_REGISTRY = NullRegistry()


def get_registry():
    """The live :data:`REGISTRY` when observability is on, else the
    zero-cost :data:`NULL_REGISTRY`."""
    return REGISTRY if enabled() else NULL_REGISTRY
