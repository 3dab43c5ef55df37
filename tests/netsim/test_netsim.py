"""Tests for packets, flows, traces, features, and flowmarkers."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.netsim import (
    Flow,
    Packet,
    TrafficProfile,
    build_flowmarker,
    conversation_key,
    five_tuple,
    generate_flow,
    interleave_flows,
    packet_features,
    partial_flowmarkers,
)
from repro.netsim.features import PACKET_FEATURE_NAMES
from repro.netsim.flowmarker import (
    FLOWLENS_SPEC,
    PAPER_SPEC,
    FlowMarkerSpec,
    average_marker,
)


def make_packet(ts=0.0, size=100, src=1, dst=2, sport=1000, dport=2000, proto=6):
    return Packet(
        timestamp=ts, size=size, src_ip=src, dst_ip=dst,
        src_port=sport, dst_port=dport, protocol=proto,
    )


class TestPacket:
    def test_valid_packet(self):
        p = make_packet()
        assert p.size == 100

    def test_negative_timestamp_rejected(self):
        with pytest.raises(DatasetError):
            make_packet(ts=-1.0)

    def test_size_bounds(self):
        with pytest.raises(DatasetError):
            make_packet(size=10)
        with pytest.raises(DatasetError):
            make_packet(size=20000)

    def test_address_bounds(self):
        with pytest.raises(DatasetError):
            make_packet(src=2**32)

    def test_port_bounds(self):
        with pytest.raises(DatasetError):
            make_packet(sport=70000)

    def test_five_tuple(self):
        p = make_packet()
        assert five_tuple(p) == (1, 2, 1000, 2000, 6)

    def test_conversation_key_direction_insensitive(self):
        a = make_packet(src=1, dst=2)
        b = make_packet(src=2, dst=1)
        assert conversation_key(a) == conversation_key(b)


class TestFlow:
    def test_ordering_enforced(self):
        flow = Flow([make_packet(ts=1.0)])
        with pytest.raises(DatasetError):
            flow.add(make_packet(ts=0.5))

    def test_duration(self):
        flow = Flow([make_packet(ts=1.0), make_packet(ts=4.0)])
        assert flow.duration == pytest.approx(3.0)

    def test_singleton_stats(self):
        flow = Flow([make_packet()])
        assert flow.duration == 0.0
        assert flow.inter_arrival_times.size == 0

    def test_inter_arrival_times(self):
        flow = Flow([make_packet(ts=0.0), make_packet(ts=2.0), make_packet(ts=3.0)])
        assert np.allclose(flow.inter_arrival_times, [2.0, 1.0])


class TestTrafficProfile:
    def test_validation(self):
        with pytest.raises(DatasetError):
            TrafficProfile("x", size_mean=0, size_sigma=0.1, ipt_mean=1,
                           ipt_sigma=0.1, flow_length_mean=5)
        with pytest.raises(DatasetError):
            TrafficProfile("x", size_mean=100, size_sigma=0.1, ipt_mean=1,
                           ipt_sigma=0.1, flow_length_mean=1)

    def test_generate_flow_structure(self):
        profile = TrafficProfile("app", size_mean=500, size_sigma=0.2,
                                 ipt_mean=1.0, ipt_sigma=0.3, flow_length_mean=10)
        flow = generate_flow(profile, seed=0)
        assert flow.label == "app"
        assert len(flow) >= 2
        ts = [p.timestamp for p in flow]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_generate_flow_deterministic(self):
        profile = TrafficProfile("app", size_mean=500, size_sigma=0.2,
                                 ipt_mean=1.0, ipt_sigma=0.3, flow_length_mean=10)
        a = generate_flow(profile, seed=5)
        b = generate_flow(profile, seed=5)
        assert [p.size for p in a] == [p.size for p in b]

    def test_port_range_respected(self):
        profile = TrafficProfile("app", size_mean=500, size_sigma=0.2,
                                 ipt_mean=1.0, ipt_sigma=0.3,
                                 flow_length_mean=10, port_range=(4000, 4010))
        flow = generate_flow(profile, seed=0)
        assert all(4000 <= p.dst_port <= 4010 for p in flow)


class TestInterleaveFlows:
    def flows(self):
        a = Flow([make_packet(ts=0.0, size=100), make_packet(ts=2.0, size=200)],
                 label="a")
        b = Flow([make_packet(ts=1.0, size=300), make_packet(ts=2.0, size=400)],
                 label="b")
        return [a, b]

    def test_sorted_with_stable_ties_and_flow_labels(self):
        packets, labels = interleave_flows(self.flows(), lambda f: f.label)
        # The ts=2.0 tie keeps flow order: a's packet before b's.
        assert [p.size for p in packets] == [100, 300, 200, 400]
        assert labels == ["a", "b", "a", "b"]

    def test_unlabeled(self):
        packets, labels = interleave_flows(self.flows())
        assert [p.timestamp for p in packets] == [0.0, 1.0, 2.0, 2.0]
        assert labels is None


class TestFeatures:
    def test_feature_vector_shape_and_names(self):
        vec = packet_features(make_packet())
        assert vec.shape == (len(PACKET_FEATURE_NAMES),)

    def test_feature_values(self):
        p = make_packet(size=123, proto=17)
        vec = packet_features(p)
        assert vec[0] == 123.0
        assert vec[1] == 17.0

    def test_ip_pair_hash_deterministic(self):
        a = packet_features(make_packet())
        b = packet_features(make_packet())
        assert a[6] == b[6]


class TestFlowMarker:
    def test_spec_total_bins(self):
        assert PAPER_SPEC.total_bins == 30
        assert FLOWLENS_SPEC.total_bins == 151

    def test_pl_binning_clamps(self):
        spec = FlowMarkerSpec(pl_bin_size=64, pl_bins=4, ipt_bin_size=1.0, ipt_bins=2)
        assert spec.pl_bin(0) == 0
        assert spec.pl_bin(64) == 1
        assert spec.pl_bin(10_000) == 3  # clamped into last bin

    def test_ipt_binning_clamps(self):
        spec = FlowMarkerSpec(pl_bin_size=64, pl_bins=2, ipt_bin_size=512.0, ipt_bins=3)
        assert spec.ipt_bin(0.0) == 0
        assert spec.ipt_bin(513.0) == 1
        assert spec.ipt_bin(1e9) == 2

    def test_negative_gap_raises(self):
        with pytest.raises(DatasetError):
            PAPER_SPEC.ipt_bin(-1.0)

    def test_marker_counts_conserved(self):
        flow = Flow([make_packet(ts=float(i), size=100 + i) for i in range(8)])
        marker = build_flowmarker(flow)
        assert marker[: PAPER_SPEC.pl_bins].sum() == 8  # one count per packet
        assert marker[PAPER_SPEC.pl_bins :].sum() == 7  # one per gap

    def test_partial_markers_monotone(self):
        flow = Flow([make_packet(ts=float(i)) for i in range(6)])
        previous = None
        count = 0
        for marker in partial_flowmarkers(flow):
            if previous is not None:
                assert np.all(marker >= previous)
            previous = marker
            count += 1
        assert count == 6

    def test_last_partial_equals_full(self):
        flow = Flow([make_packet(ts=float(i), size=100 + 64 * i) for i in range(5)])
        partials = list(partial_flowmarkers(flow))
        assert np.array_equal(partials[-1], build_flowmarker(flow))

    def test_average_marker(self):
        flows = [Flow([make_packet(ts=0.0), make_packet(ts=1.0)]) for _ in range(3)]
        avg = average_marker(flows)
        assert avg[PAPER_SPEC.pl_bin(100)] == pytest.approx(2.0)

    def test_average_empty_raises(self):
        with pytest.raises(DatasetError):
            average_marker([])
