"""Tests for the deployment runtime (stream processing)."""

import numpy as np
import pytest

from repro.backends.taurus import TaurusBackend
from repro.datasets.botnet import (
    flow_label,
    generate_botnet_flows,
    marker_dataset,
)
from repro.errors import HomunculusError
from repro.eval.baselines import train_baseline_dnn
from repro.datasets import load_botnet
from repro.netsim.packet import Packet
from repro.netsim.trace import interleave_flows
from repro.runtime import (
    FlowmarkerTracker,
    PacketFeatureExtractor,
    StreamProcessor,
    StreamStats,
)


def make_packet(ts=0.0, size=100, src=1, dst=2):
    return Packet(timestamp=ts, size=size, src_ip=src, dst_ip=dst,
                  src_port=1000, dst_port=2000)


class TestPacketFeatureExtractor:
    def test_shape(self):
        vec = PacketFeatureExtractor().extract(make_packet())
        assert vec.shape == (7,)


class TestFlowmarkerTracker:
    def test_first_packet_no_ipt(self):
        tracker = FlowmarkerTracker()
        marker = tracker.extract(make_packet(ts=1.0))
        assert marker[: tracker.spec.pl_bins].sum() == 1
        assert marker[tracker.spec.pl_bins :].sum() == 0

    def test_second_packet_adds_ipt(self):
        tracker = FlowmarkerTracker()
        tracker.extract(make_packet(ts=1.0))
        marker = tracker.extract(make_packet(ts=2.0))
        assert marker[: tracker.spec.pl_bins].sum() == 2
        assert marker[tracker.spec.pl_bins :].sum() == 1

    def test_conversations_isolated(self):
        tracker = FlowmarkerTracker()
        tracker.extract(make_packet(src=1, dst=2))
        marker = tracker.extract(make_packet(src=3, dst=4))
        assert marker.sum() == 1  # fresh conversation state

    def test_direction_insensitive(self):
        tracker = FlowmarkerTracker()
        tracker.extract(make_packet(ts=0.0, src=1, dst=2))
        marker = tracker.extract(make_packet(ts=1.0, src=2, dst=1))
        assert marker[: tracker.spec.pl_bins].sum() == 2

    def test_eviction_when_full(self):
        tracker = FlowmarkerTracker(max_conversations=2)
        tracker.extract(make_packet(ts=0.0, src=1, dst=2))
        tracker.extract(make_packet(ts=1.0, src=3, dst=4))
        tracker.extract(make_packet(ts=2.0, src=5, dst=6))
        assert len(tracker) == 2
        assert tracker.evictions == 1

    def test_tracker_matches_offline_marker(self):
        flows = generate_botnet_flows(10, seed=0)
        tracker = FlowmarkerTracker(max_conversations=64)
        final = {}
        for flow in flows:
            for packet in flow:
                key = tracker.key_fn(packet)
                final[key] = tracker.extract(packet)
        X, _ = marker_dataset(flows)
        # Every offline full-flow marker appears as some conversation's
        # final online state.
        online = np.stack(list(final.values()))
        for offline in X:
            assert any(np.array_equal(offline, row) for row in online)

    def test_non_monotonic_raises(self):
        tracker = FlowmarkerTracker()
        tracker.extract(make_packet(ts=5.0))
        with pytest.raises(HomunculusError):
            tracker.extract(make_packet(ts=1.0))

    def test_eviction_order_matches_min_scan(self):
        """O(1) LRU eviction must pick the same victims the old O(n)
        min-timestamp scan did (streams are time-ordered)."""

        class MinScanTracker(FlowmarkerTracker):
            def _evict_oldest(self):
                oldest = min(self._last_seen, key=self._last_seen.get)
                del self._markers[oldest]
                del self._last_seen[oldest]
                self.evictions += 1

        rng = np.random.default_rng(0)
        # 12 conversations churning through a 4-slot table, globally
        # monotonic timestamps, repeated touches reordering recency.
        packets = []
        ts = 0.0
        for _ in range(400):
            ts += float(rng.exponential(0.1))
            pair = int(rng.integers(12))
            packets.append(make_packet(ts=ts, src=pair + 1, dst=100 + pair))

        fast = FlowmarkerTracker(max_conversations=4)
        slow = MinScanTracker(max_conversations=4)
        for packet in packets:
            np.testing.assert_array_equal(
                fast.extract(packet), slow.extract(packet)
            )
        assert fast.evictions == slow.evictions
        assert list(fast._markers) == list(slow._markers)
        assert fast._last_seen == slow._last_seen

    def test_eviction_keeps_state_consistent(self):
        tracker = FlowmarkerTracker(max_conversations=2)
        for i in range(10):
            tracker.extract(make_packet(ts=float(i), src=i + 1, dst=50 + i))
        assert len(tracker) == 2
        assert tracker.evictions == 8
        assert set(tracker._markers) == set(tracker._last_seen)

    def test_reset(self):
        tracker = FlowmarkerTracker()
        tracker.extract(make_packet())
        tracker.reset()
        assert len(tracker) == 0


class TestStreamStats:
    def test_accuracy_tracking(self):
        stats = StreamStats()
        stats.record(1, label=1)
        stats.record(0, label=1)
        stats.record(1)  # unlabeled
        assert stats.packets == 3
        assert stats.labeled == 2
        assert stats.accuracy == 0.5
        assert stats.confusion[(1, 1)] == 1
        assert stats.confusion[(1, 0)] == 1

    def test_accuracy_none_when_unlabeled(self):
        stats = StreamStats()
        stats.record(0)
        assert stats.accuracy is None

    def test_positive_rate(self):
        stats = StreamStats()
        for p in (1, 1, 0, 1):
            stats.record(p)
        assert stats.positive_rate() == 0.75


class TestStreamProcessor:
    @pytest.fixture(scope="class")
    def bd_pipeline(self):
        dataset = load_botnet(n_train_flows=150, n_test_flows=2, seed=13,
                              per_packet_test=False)
        net, scaler = train_baseline_dnn("bd", dataset, seed=0)
        return TaurusBackend().compile_model(net, scaler=scaler, name="bd")

    def test_online_botnet_detection(self, bd_pipeline):
        flows = generate_botnet_flows(60, seed=99)
        processor = StreamProcessor(
            bd_pipeline, FlowmarkerTracker(max_conversations=512), batch_size=64
        )
        predictions = processor.process(*interleave_flows(flows, flow_label))
        assert len(predictions) == sum(len(f) for f in flows)
        assert processor.stats.accuracy is not None
        assert processor.stats.accuracy > 0.7  # online per-packet accuracy

    def test_prediction_order_preserved(self, bd_pipeline):
        flows = generate_botnet_flows(10, seed=5)
        tracker = FlowmarkerTracker(max_conversations=512)
        processor = StreamProcessor(bd_pipeline, tracker, batch_size=7)
        batched = processor.process(*interleave_flows(flows))
        tracker.reset()
        single = StreamProcessor(bd_pipeline, FlowmarkerTracker(max_conversations=512),
                                 batch_size=1).process(*interleave_flows(flows))
        assert list(batched) == list(single)

    def test_pipeline_must_have_predict(self):
        with pytest.raises(HomunculusError):
            StreamProcessor(object(), PacketFeatureExtractor())

    def test_bad_batch_size(self, bd_pipeline):
        with pytest.raises(HomunculusError):
            StreamProcessor(bd_pipeline, PacketFeatureExtractor(), batch_size=0)
