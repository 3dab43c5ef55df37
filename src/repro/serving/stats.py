"""Online serving statistics: latency percentiles, queue series, drops.

:class:`ServingStats` extends the runtime's :class:`StreamStats` (packet
counts, accuracy, confusion) with the operator-facing signals a serving
runtime must report — end-to-end latency percentiles, per-stage
queue-depth **time series**, drop counters, batch sizes, pipeline-swap
events and throughput.  Percentiles are kept in O(1) memory
(:class:`~repro.obs.registry.Histogram`); depth and latency samples
are kept in fixed-capacity ring buffers (:class:`RingSeries`), the way
a switch exports telemetry registers plus a short history ring rather
than logging per-packet records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HomunculusError
from repro.obs.registry import Histogram
from repro.runtime.stream import StreamStats


#: Serving's name for the shared log-binned histogram.
LatencyHistogram = Histogram


class RingSeries:
    """Fixed-capacity ring of ``(t, value)`` samples plus running stats.

    The time-series sibling of a telemetry gauge: running ``max``/
    ``mean`` never lose information, while the ring keeps the most
    recent ``capacity`` samples so an operator (or a benchmark plot) can
    see *when* a queue filled, not just how deep it ever got.

    Example::

        s = RingSeries(capacity=4)
        for t, depth in enumerate([0, 3, 9, 4, 1]):
            s.observe(depth, t=float(t))
        s.max, round(s.mean, 1)            # (9, 3.4)  — over all samples
        s.samples()                        # last 4 (t, value) pairs
    """

    __slots__ = ("capacity", "_times", "_values", "_head", "_count",
                 "max", "_sum", "_samples")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise HomunculusError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._times = np.zeros(self.capacity)
        self._values = np.zeros(self.capacity)
        self._head = 0
        self._count = 0
        self.max: float = 0.0
        self._sum = 0.0
        self._samples = 0

    def observe(self, value: float, t: "float | None" = None) -> None:
        value = float(value)
        self._times[self._head] = float(t) if t is not None else 0.0
        self._values[self._head] = value
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        if value > self.max:
            self.max = value
        self._sum += value
        self._samples += 1

    def observe_batch(self, values, times=None) -> None:
        """Vectorized :meth:`observe`: append many samples at once.

        ``times`` may be omitted (timestamps default to 0.0), a scalar
        (broadcast over the batch — one arrival stamp per micro-batch),
        or an array matching ``values``.  Running ``max``/``mean``
        account for every sample even when the batch is larger than the
        ring and only the newest ``capacity`` samples are retained.
        """
        values = np.asarray(values, dtype=float).ravel()
        n = values.size
        if n == 0:
            return
        if times is None:
            stamps = np.zeros(n)
        else:
            stamps = np.asarray(times, dtype=float)
            if stamps.ndim == 0:
                stamps = np.full(n, float(stamps))
            else:
                stamps = stamps.ravel()
                if stamps.size != n:
                    raise HomunculusError(
                        f"observe_batch: {stamps.size} timestamps for "
                        f"{n} values"
                    )
        self._sum += float(values.sum())
        self._samples += n
        peak = float(values.max())
        if peak > self.max:
            self.max = peak
        if n > self.capacity:
            values = values[-self.capacity:]
            stamps = stamps[-self.capacity:]
            n = values.size
        idx = (self._head + np.arange(n)) % self.capacity
        self._times[idx] = stamps
        self._values[idx] = values
        self._head = (self._head + n) % self.capacity
        self._count = min(self._count + n, self.capacity)

    def __len__(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._samples if self._samples else 0.0

    # Gauge-compatible alias (the summary() keys predate the ring).
    @property
    def max_depth(self) -> float:
        return self.max

    def samples(self) -> "tuple[np.ndarray, np.ndarray]":
        """Ring contents in chronological order as ``(times, values)``."""
        if self._count < self.capacity:
            order = slice(0, self._count)
            return self._times[order].copy(), self._values[order].copy()
        idx = (np.arange(self.capacity) + self._head) % self.capacity
        return self._times[idx], self._values[idx]

    def window(
        self, since: "float | None" = None, until: "float | None" = None
    ) -> np.ndarray:
        """Values whose timestamps fall in ``(since, until]``.

        The snapshot-window primitive behind the control plane's
        deploy gating: record ``t`` at the swap, then compare
        ``window(until=t)`` (the pre-swap behaviour still in the ring)
        against ``window(since=t)`` (everything the new pipeline has
        done).  Bounds are exclusive-below / inclusive-above so one
        sample never lands in both windows.
        """
        times, values = self.samples()
        mask = np.ones(len(values), dtype=bool)
        if since is not None:
            mask &= times > float(since)
        if until is not None:
            mask &= times <= float(until)
        return values[mask]


@dataclass
class ServingStats(StreamStats):
    """Stream accuracy counters plus serving-runtime telemetry.

    The inherited :class:`StreamStats` fields stay bit-compatible with
    the synchronous :class:`~repro.runtime.stream.StreamProcessor`, so a
    block-mode async run can be compared field-for-field against the
    sync baseline.  On top of those it tracks, per engine:

    * ``enqueued`` — packets that *arrived* at the ingress queue
      (admitted or not), so ``enqueued == packets + dropped`` holds
      under every drop policy once a run drains,
    * ``in_flight`` — arrived packets neither recorded nor dropped yet
      (queued or inside a stage), so
      ``enqueued == packets + dropped + in_flight`` holds in every
      snapshot, mid-run included,
    * ``drops`` — per-stage drop counters (and ``lane_drops`` per
      priority lane),
    * ``queues`` — per-stage :class:`RingSeries` of depth samples,
    * ``latency`` / ``lane_latency`` — end-to-end
      :class:`LatencyHistogram` (overall, and per priority lane),
    * ``latency_series`` — ring of per-batch worst-case latencies,
    * ``swaps`` / ``swap_times`` — hitless pipeline swaps observed.

    Example::

        stats = engine.stats            # after engine.process(...)
        stats.summary()["latency_p99_us"]
        times, depths = stats.queues["ingress"].samples()
    """

    enqueued: int = 0
    in_flight: int = 0
    drops: dict = field(default_factory=dict)
    lane_drops: dict = field(default_factory=dict)
    batches: int = 0
    batch_rows: int = 0
    deadline_flushes: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    lane_latency: dict = field(default_factory=dict)
    latency_series: RingSeries = field(default_factory=RingSeries)
    queues: dict = field(default_factory=dict)
    swaps: int = 0
    swap_times: list = field(default_factory=list)
    started_at: "float | None" = None
    finished_at: "float | None" = None

    def drop(self, stage: str, n: int = 1, lane: "int | None" = None) -> None:
        """Count ``n`` arrived packets lost at ``stage``."""
        self.drops[stage] = self.drops.get(stage, 0) + n
        self.in_flight -= n
        if lane is not None:
            self.lane_drops[lane] = self.lane_drops.get(lane, 0) + n

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    def observe_queue(self, stage: str, depth: int, t: "float | None" = None) -> None:
        series = self.queues.get(stage)
        if series is None:
            series = self.queues[stage] = RingSeries()
        series.observe(depth, t=t)

    def observe_lane_latency(self, lane: int, seconds) -> None:
        """Record end-to-end latencies for one priority lane."""
        histogram = self.lane_latency.get(lane)
        if histogram is None:
            histogram = self.lane_latency[lane] = LatencyHistogram()
        histogram.observe_batch(seconds)

    def observe_batch(self, rows: int, deadline: bool = False) -> None:
        self.batches += 1
        self.batch_rows += rows
        if deadline:
            self.deadline_flushes += 1

    def mark_swap(self, t: "float | None" = None) -> None:
        """Count a hitless pipeline swap (and when it happened)."""
        self.swaps += 1
        if t is not None:
            self.swap_times.append(float(t))

    def counters(self) -> dict:
        """Monotonic counters as a plain dict (a *snapshot*).

        The other half of the control plane's window comparison: take
        one snapshot before a swap and subtract it from a later one to
        get exact per-window packet/drop/batch deltas — counters never
        reset, so deltas are race-free no matter when the rings wrapped.
        """
        return {
            "packets": self.packets,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "batches": self.batches,
            "batch_rows": self.batch_rows,
            "swaps": self.swaps,
        }

    @property
    def mean_batch(self) -> float:
        return self.batch_rows / self.batches if self.batches else 0.0

    @property
    def elapsed(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput_pps(self) -> float:
        elapsed = self.elapsed
        return self.packets / elapsed if elapsed > 0 else 0.0

    def summary(self) -> dict:
        """Operator-facing snapshot (all scalars, JSON-friendly)."""
        out = {
            "packets": self.packets,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "in_flight": self.in_flight,
            "drops": dict(self.drops),
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 2),
            "deadline_flushes": self.deadline_flushes,
            "accuracy": self.accuracy,
            "throughput_pps": round(self.throughput_pps, 1),
            "latency_p50_us": round(self.latency.percentile(50) * 1e6, 1),
            "latency_p95_us": round(self.latency.percentile(95) * 1e6, 1),
            "latency_p99_us": round(self.latency.percentile(99) * 1e6, 1),
            "latency_max_us": round(self.latency.max * 1e6, 1),
            "queue_max_depth": {s: int(g.max) for s, g in self.queues.items()},
            "swaps": self.swaps,
        }
        # Key the per-lane report by every lane we heard from — served
        # (lane_latency) or shed (lane_drops) — so a lane that lost all
        # of its traffic still shows up in the breakdown.
        lanes = sorted(set(self.lane_latency) | set(self.lane_drops))
        if lanes:
            out["lane_latency_p99_us"] = {
                lane: round(h.percentile(99) * 1e6, 1)
                for lane, h in sorted(self.lane_latency.items())
            }
            out["lane_drops"] = {
                lane: self.lane_drops.get(lane, 0) for lane in lanes
            }
        return out
