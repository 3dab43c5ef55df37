"""Telemetry: ring-buffered series, lane histograms, swap counters."""

import numpy as np
import pytest

from repro.errors import HomunculusError
from repro.serving.stats import RingSeries, ServingStats


class TestRingSeries:
    def test_capacity_validated(self):
        with pytest.raises(HomunculusError):
            RingSeries(capacity=0)

    def test_running_stats_cover_all_samples(self):
        s = RingSeries(capacity=4)
        for t, depth in enumerate([0, 3, 9, 4, 1, 2]):
            s.observe(depth, t=float(t))
        # max/mean are over *all* samples, not just the retained ring.
        assert s.max == 9
        assert s.mean == pytest.approx(19 / 6)
        assert len(s) == 4

    def test_ring_keeps_most_recent_in_order(self):
        s = RingSeries(capacity=3)
        for t in range(7):
            s.observe(t * 10, t=float(t))
        times, values = s.samples()
        assert list(times) == [4.0, 5.0, 6.0]
        assert list(values) == [40.0, 50.0, 60.0]

    def test_partial_ring_in_order(self):
        s = RingSeries(capacity=8)
        s.observe(5, t=1.0)
        s.observe(7, t=2.0)
        times, values = s.samples()
        assert list(times) == [1.0, 2.0]
        assert list(values) == [5.0, 7.0]

    def test_gauge_compatible_aliases(self):
        s = RingSeries()
        s.observe(4)
        s.observe(2)
        assert s.max_depth == s.max == 4
        assert s.mean == 3.0


class TestRingSeriesBatch:
    def test_batch_equals_loop_of_observes(self):
        a, b = RingSeries(capacity=5), RingSeries(capacity=5)
        values = [3.0, 1.0, 9.0, 2.0, 8.0, 4.0, 7.0]
        times = [float(t) for t in range(len(values))]
        for v, t in zip(values, times):
            a.observe(v, t=t)
        b.observe_batch(values, times=times)
        assert a.samples()[0].tolist() == b.samples()[0].tolist()
        assert a.samples()[1].tolist() == b.samples()[1].tolist()
        assert a.max == b.max and a.mean == b.mean
        assert len(a) == len(b)

    def test_oversized_batch_keeps_newest_but_counts_all(self):
        s = RingSeries(capacity=3)
        s.observe_batch(list(range(10)), times=[float(t) for t in range(10)])
        times, values = s.samples()
        assert list(values) == [7.0, 8.0, 9.0]
        assert s.max == 9.0
        assert s.mean == pytest.approx(4.5)  # over all 10, not just 3

    def test_scalar_time_broadcasts(self):
        s = RingSeries(capacity=4)
        s.observe_batch([1.0, 2.0], times=5.0)
        assert s.samples()[0].tolist() == [5.0, 5.0]

    def test_empty_batch_is_noop(self):
        s = RingSeries(capacity=4)
        s.observe_batch([])
        assert len(s) == 0

    def test_mismatched_times_rejected(self):
        s = RingSeries(capacity=4)
        with pytest.raises(HomunculusError):
            s.observe_batch([1.0, 2.0], times=[0.0])

    def test_batch_wraps_existing_ring(self):
        s = RingSeries(capacity=4)
        for t in range(3):
            s.observe(float(t), t=float(t))
        s.observe_batch([10.0, 11.0, 12.0], times=[3.0, 4.0, 5.0])
        times, values = s.samples()
        assert list(times) == [2.0, 3.0, 4.0, 5.0]
        assert list(values) == [2.0, 10.0, 11.0, 12.0]


class TestServingStats:
    def test_queue_series_created_on_demand(self):
        stats = ServingStats()
        stats.observe_queue("ingress", 3, t=0.5)
        stats.observe_queue("ingress", 7, t=1.0)
        series = stats.queues["ingress"]
        assert series.max == 7
        times, values = series.samples()
        assert list(values) == [3.0, 7.0]
        assert stats.summary()["queue_max_depth"] == {"ingress": 7}

    def test_lane_drops_and_latency_in_summary(self):
        stats = ServingStats()
        stats.observe_lane_latency(0, [1e-4, 2e-4])
        stats.observe_lane_latency(1, [5e-3])
        stats.drop("ingress", lane=1)
        summary = stats.summary()
        assert set(summary["lane_latency_p99_us"]) == {0, 1}
        assert summary["lane_drops"] == {0: 0, 1: 1}
        assert stats.lane_latency[0].count == 2

    def test_lane_that_lost_everything_still_reported(self):
        # A lane whose packets were all shed never reaches the record
        # stage, so it has no latency histogram — it must still appear
        # in the per-lane drop breakdown.
        stats = ServingStats()
        stats.observe_lane_latency(0, [1e-4])
        stats.drop("ingress", n=7, lane=1)
        summary = stats.summary()
        assert summary["lane_drops"] == {0: 0, 1: 7}
        assert set(summary["lane_latency_p99_us"]) == {0}

    def test_mark_swap(self):
        stats = ServingStats()
        stats.mark_swap(12.5)
        stats.mark_swap()
        assert stats.swaps == 2
        assert stats.swap_times == [12.5]
        assert stats.summary()["swaps"] == 2

    def test_conservation_fields_default_clean(self):
        stats = ServingStats()
        summary = stats.summary()
        assert summary["enqueued"] == summary["dropped"] == 0
        assert "lane_latency_p99_us" not in summary  # no lanes configured

    def test_latency_series_rings(self):
        stats = ServingStats()
        for i in range(600):
            stats.latency_series.observe(i * 1e-6, t=float(i))
        assert len(stats.latency_series) == stats.latency_series.capacity
        _, values = stats.latency_series.samples()
        assert np.argmax(values) == len(values) - 1  # newest retained