"""The one log-binned histogram behind registry histograms and serving
latency: Prometheus ``le`` binning, cumulative export, one class."""

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, render_prometheus
from repro.serving import LatencyHistogram, ServingStats


def test_one_class_behind_both_names():
    assert LatencyHistogram is Histogram
    assert isinstance(ServingStats().latency, Histogram)


def test_value_on_an_edge_lands_in_that_edges_bucket():
    hist = Histogram()
    le, _ = hist.buckets()[48]
    hist.observe(le)
    counts = dict((edge, count) for edge, count in hist.buckets())
    assert counts[le] == 1                      # value <= le
    assert hist.buckets()[47][1] == 0
    assert hist.percentile(50) == le


def test_buckets_cumulative_and_consistent_with_percentiles():
    values = np.geomspace(1e-7, 1e3, 500)   # under- and overflow included
    hist = Histogram()
    hist.observe_batch(values)
    buckets = hist.buckets()
    counts = [count for _, count in buckets]
    assert counts == sorted(counts)
    assert buckets[-1] == ["+Inf", 500] and hist.count == 500
    assert hist.sum == pytest.approx(values.sum())
    edges = [edge for edge, _ in buckets[:-1]]
    assert len(edges) == 8 * 16 + 1             # 1 us .. 100 s, 16 per decade
    for q in (10, 50, 90, 99):
        rank = q / 100 * 500
        p = hist.percentile(q)
        if p in edges:
            assert counts[edges.index(p)] >= rank


def test_scalar_and_batch_observe_bin_alike_on_edges():
    edges = [edge for edge, _ in Histogram().buckets()[:-1]]
    one, many = Histogram(), Histogram()
    for edge in edges:
        one.observe(edge)
    many.observe_batch(edges)
    assert one.buckets() == many.buckets()
    assert all(count == index + 1 for index, (_, count)
               in enumerate(one.buckets()[:-1]))


def test_registry_histogram_exports_the_same_buckets():
    registry = MetricsRegistry()
    registry.histogram("lat_seconds", "latency").observe(0.003)
    sample = registry.snapshot()["lat_seconds"]["samples"]["[]"]
    reference = Histogram()
    reference.observe(0.003)
    assert sample["buckets"] == reference.buckets()
    assert 'lat_seconds_bucket{le="+Inf"} 1' in render_prometheus(
        registry.snapshot())
