"""Deploy gating: compare serving telemetry windows across a swap.

A rolling deploy is only *safe* if the controller can tell, per worker,
whether the new pipeline made things worse.  The signals already exist —
:class:`~repro.serving.stats.ServingStats` keeps monotonic counters and
ring-buffered latency series — so gating is pure arithmetic over two
windows of the same worker's telemetry:

* the **pre window**: the ring/counter state up to the moment of the
  swap (``stats.counters()`` snapshot + ``latency_series.window(until=
  t_swap)``),
* the **post window**: everything observed after it.

:class:`RegressionGate` holds the thresholds and renders the verdict;
:func:`window_metrics` turns a window into the few scalars the gate
compares (p99 latency, drop rate, traffic volume).  Percentiles here are
exact over the window samples — the windows are small (ring capacity),
so there is no need for the histogram's log-binned approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ControlError


def window_percentile(values, q: float) -> float:
    """Exact ``q``-th percentile (0..100) of a window sample array."""
    if not 0 <= q <= 100:
        raise ControlError(f"percentile wants 0..100, got {q}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def window_metrics(latencies, counters_before: dict, counters_after: dict) -> dict:
    """Reduce one telemetry window to the scalars the gate compares.

    ``latencies`` is the window's latency samples (seconds, one per
    micro-batch — :meth:`RingSeries.window` output); the two counter
    snapshots bound the window, so deltas are exact even after the ring
    wrapped.  Drop rate is drops per *arrival* (enqueued), the measure
    that stays comparable when a policy sheds load.
    """
    latencies = np.asarray(latencies, dtype=float)
    arrived = counters_after["enqueued"] - counters_before["enqueued"]
    dropped = counters_after["dropped"] - counters_before["dropped"]
    return {
        "batches": counters_after["batches"] - counters_before["batches"],
        "packets": counters_after["packets"] - counters_before["packets"],
        "arrived": arrived,
        "dropped": dropped,
        "drop_rate": dropped / arrived if arrived > 0 else 0.0,
        "latency_p50_s": window_percentile(latencies, 50),
        "latency_p99_s": window_percentile(latencies, 99),
        "latency_samples": int(latencies.size),
    }


@dataclass
class RegressionGate:
    """Thresholds deciding whether a post-swap window regressed.

    A worker's upgrade is rolled back when, versus its own pre-swap
    window, *either*

    * p99 latency grew beyond ``latency_factor``x (and past the absolute
      ``latency_floor_s`` — a 5 ms -> 15 ms wobble on an asyncio event
      loop is scheduling noise, not a regression), or
    * the drop rate rose by more than ``drop_margin`` (absolute).

    ``min_batches`` post-swap micro-batches must be observed before a
    verdict (the controller waits up to ``settle_s`` seconds for them);
    a worker that stops producing batches entirely is handled upstream
    as a death, not a regression.

    Example::

        gate = RegressionGate(latency_factor=3.0, settle_s=2.0)
        verdict = gate.compare(pre, post)
        verdict["regressed"], verdict["reasons"]
    """

    latency_factor: float = 3.0
    latency_floor_s: float = 2e-2
    drop_margin: float = 0.01
    min_batches: int = 3
    settle_s: float = 5.0
    poll_s: float = 0.02

    def __post_init__(self) -> None:
        if self.latency_factor <= 1.0:
            raise ControlError(
                f"latency_factor must be > 1, got {self.latency_factor}"
            )
        if self.latency_floor_s < 0 or self.drop_margin < 0:
            raise ControlError("latency_floor_s / drop_margin must be >= 0")
        if self.min_batches < 1:
            raise ControlError(f"min_batches must be >= 1, got {self.min_batches}")
        if self.settle_s <= 0 or self.poll_s <= 0:
            raise ControlError("settle_s / poll_s must be > 0")

    def compare(self, pre: dict, post: dict) -> dict:
        """Verdict over two :func:`window_metrics` dicts.

        Returns ``{"regressed": bool, "reasons": [...], "pre": pre,
        "post": post}``; reasons are human-readable strings naming each
        tripped threshold (empty when healthy).
        """
        reasons = []
        post_p99 = post["latency_p99_s"]
        pre_p99 = pre["latency_p99_s"]
        if post_p99 > self.latency_floor_s and post_p99 > pre_p99 * self.latency_factor:
            reasons.append(
                f"p99 latency regressed {pre_p99 * 1e6:.0f} us -> "
                f"{post_p99 * 1e6:.0f} us (> {self.latency_factor:g}x)"
            )
        if post["drop_rate"] > pre["drop_rate"] + self.drop_margin:
            reasons.append(
                f"drop rate regressed {pre['drop_rate']:.4f} -> "
                f"{post['drop_rate']:.4f} (> +{self.drop_margin:g})"
            )
        return {"regressed": bool(reasons), "reasons": reasons,
                "pre": pre, "post": post}

    def to_dict(self) -> dict:
        return {
            "latency_factor": self.latency_factor,
            "latency_floor_s": self.latency_floor_s,
            "drop_margin": self.drop_margin,
            "min_batches": self.min_batches,
            "settle_s": self.settle_s,
        }

    @staticmethod
    def from_dict(doc: dict) -> "RegressionGate":
        """Build a gate from a JSON body (unknown keys rejected)."""
        allowed = {"latency_factor", "latency_floor_s", "drop_margin",
                   "min_batches", "settle_s", "poll_s"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ControlError(f"unknown gate fields: {unknown}")
        defaults = RegressionGate()
        kwargs = {key: type(getattr(defaults, key))(value)
                  for key, value in doc.items()}
        return RegressionGate(**kwargs)

