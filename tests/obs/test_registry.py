"""MetricsRegistry: instruments, labels, snapshots, merging, no-op mode."""

import pytest

from repro.errors import HomunculusError
from repro.obs.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    enabled,
    merge_snapshots,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert registry.snapshot()["c_total"]["samples"]["[]"] == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(HomunculusError):
            registry.counter("c_total").inc(-1)

    def test_histogram_buckets_cumulative(self):
        hist = Histogram(low=1e-3, high=10.0, bins_per_decade=2)
        for value in (0.0001, 0.01, 0.02, 5.0, 1000.0):
            hist.observe(value)
        buckets = hist.buckets()
        counts = [count for _, count in buckets]
        # Cumulative: monotone non-decreasing, +Inf bucket sees all.
        assert counts == sorted(counts)
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 5
        # The underflow (0.0001 < low) and overflow (1000 > high)
        # observations are still counted.
        assert hist.count == 5
        assert hist.sum == pytest.approx(0.0001 + 0.01 + 0.02 + 5.0 + 1000.0)

    def test_get_or_create_returns_same_family(self, registry):
        a = registry.counter("x_total", "help", labels=("k",))
        b = registry.counter("x_total", "help", labels=("k",))
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("m", "help")
        with pytest.raises(HomunculusError):
            registry.histogram("m", "help")

    def test_labeled_series_are_independent(self, registry):
        family = registry.counter("hits_total", "help", labels=("route",))
        family.labels(route="a").inc()
        family.labels(route="a").inc()
        family.labels(route="b").inc()
        samples = registry.snapshot()["hits_total"]["samples"]
        assert samples['[["route", "a"]]'] == 2
        assert samples['[["route", "b"]]'] == 1


class TestSnapshotMerge:
    def test_counters_and_histograms_add(self, registry):
        other = MetricsRegistry()
        for reg, n in ((registry, 2), (other, 3)):
            reg.counter("c_total").inc(n)
            hist = reg.histogram("h_seconds")
            for _ in range(n):
                hist.observe(0.5)
        merged = merge_snapshots([registry.snapshot(), other.snapshot()])
        assert merged["c_total"]["samples"]["[]"] == 5
        hist_sample = merged["h_seconds"]["samples"]["[]"]
        assert hist_sample["count"] == 5
        assert hist_sample["sum"] == pytest.approx(2.5)

    def test_disjoint_families_union(self, registry):
        other = MetricsRegistry()
        registry.counter("only_a_total").inc()
        other.counter("only_b_total").inc()
        merged = merge_snapshots([registry.snapshot(), other.snapshot()])
        assert set(merged) == {"only_a_total", "only_b_total"}

    def test_kind_conflict_raises(self, registry):
        other = MetricsRegistry()
        registry.counter("m").inc()
        other.histogram("m").observe(1.0)
        with pytest.raises(HomunculusError):
            merge_snapshots([registry.snapshot(), other.snapshot()])

    def test_clear_empties(self, registry):
        registry.counter("c_total").inc()
        registry.clear()
        assert registry.snapshot() == {}


class TestNoOpMode:
    def test_disabled_by_default_values(self, monkeypatch):
        for off in ("", "0", "false", "no", "off", "False", "OFF"):
            monkeypatch.setenv("REPRO_OBS", off)
            assert not enabled()
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not enabled()
        for on in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_OBS", on)
            assert enabled()

    def test_null_registry_is_allocation_free_singletons(self):
        counter = NULL_REGISTRY.counter("c_total", labels=("k",))
        # Same shared instrument object every time: no per-call garbage.
        assert counter is NULL_REGISTRY.counter("other", labels=("x",))
        assert counter.labels(k="v") is counter
        counter.inc()
        counter.observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
