"""Tests for the async serving engine: equivalence, drops, drain, cancel."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.backends.taurus import TaurusBackend
from repro.datasets import load_botnet
from repro.datasets.botnet import flow_label, generate_botnet_flows
from repro.errors import HomunculusError
from repro.eval.baselines import train_baseline_dnn
from repro.netsim.packet import Packet
from repro.runtime import (
    FlowmarkerTracker,
    PacketFeatureExtractor,
    StreamProcessor,
)
from repro.serving import AsyncStreamEngine, TimedPipeline, replay


def make_packet(ts=0.0, size=100, src=1, dst=2):
    return Packet(timestamp=ts, size=size, src_ip=src, dst_ip=dst,
                  src_port=1000, dst_port=2000)


class ToyPipeline:
    """Deterministic stand-in: predicts size > 500, optionally slow."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0

    def predict(self, X):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return (np.asarray(X)[:, 0] > 500).astype(int)


def interleaved(flows, label_fn=None):
    tagged = []
    for flow in flows:
        label = label_fn(flow) if label_fn is not None else None
        for packet in flow:
            tagged.append((packet.timestamp, packet, label))
    tagged.sort(key=lambda item: item[0])
    return [t[1] for t in tagged], [t[2] for t in tagged]


class TestValidation:
    def test_pipeline_must_predict(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(object(), PacketFeatureExtractor())

    def test_extractor_must_extract(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), object())

    def test_bad_drop_policy(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              drop_policy="random-early")

    def test_lane_of_requires_priorities(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              lane_of=lambda p: 0)

    def test_bad_priorities(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              priorities=(0, 0))
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              priorities=(-1, 2))

    def test_bad_queue_depth(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              queue_depth=0)

    def test_bad_infer_workers(self):
        with pytest.raises(HomunculusError):
            AsyncStreamEngine(ToyPipeline(), PacketFeatureExtractor(),
                              infer_workers=0)


class TestBlockModeEquivalence:
    """Block mode must be bit-identical to the synchronous processor."""

    @pytest.fixture(scope="class")
    def bd_pipeline(self):
        dataset = load_botnet(n_train_flows=150, n_test_flows=2, seed=13,
                              per_packet_test=False)
        net, scaler = train_baseline_dnn("bd", dataset, seed=0)
        return TaurusBackend().compile_model(net, scaler=scaler, name="bd")

    @pytest.mark.parametrize("infer_workers", [1, 3])
    def test_predictions_and_stats_identical(self, bd_pipeline, infer_workers):
        flows = generate_botnet_flows(80, seed=7)
        packets, labels = interleaved(flows, flow_label)

        sync = StreamProcessor(
            bd_pipeline, FlowmarkerTracker(max_conversations=512), batch_size=64
        )
        sync_predictions = sync.process(packets, labels)

        engine = AsyncStreamEngine(
            bd_pipeline,
            FlowmarkerTracker(max_conversations=512),
            batch_size=64,
            drop_policy="block",
            infer_workers=infer_workers,
        )
        async_predictions = engine.process(packets, labels)

        assert np.array_equal(
            np.asarray(sync_predictions), np.asarray(async_predictions)
        )
        s, a = sync.stats, engine.stats
        assert s.packets == a.packets
        assert s.class_counts == a.class_counts
        assert s.correct == a.correct
        assert s.labeled == a.labeled
        assert s.confusion == a.confusion
        assert a.dropped == 0

    def test_small_queue_still_lossless(self, bd_pipeline):
        flows = generate_botnet_flows(20, seed=3)
        packets, labels = interleaved(flows, flow_label)
        sync = StreamProcessor(
            bd_pipeline, FlowmarkerTracker(max_conversations=512), batch_size=16
        ).process(packets, labels)
        engine = AsyncStreamEngine(
            bd_pipeline, FlowmarkerTracker(max_conversations=512),
            batch_size=16, queue_depth=8, drop_policy="block",
        )
        assert np.array_equal(
            np.asarray(sync), np.asarray(engine.process(packets, labels))
        )
        assert engine.stats.enqueued == len(packets)


class TestTailDrop:
    def test_drop_accounting_under_full_queue(self):
        # A slow pipeline with a tiny ingress queue: the unpaced burst
        # must overflow it, and every lost packet must be accounted for.
        packets = [make_packet(ts=float(i), size=600) for i in range(400)]
        engine = AsyncStreamEngine(
            ToyPipeline(delay_s=0.02),
            PacketFeatureExtractor(),
            batch_size=8,
            queue_depth=16,
            drop_policy="tail-drop",
            infer_workers=1,
        )
        predictions = engine.process(packets)
        stats = engine.stats
        assert stats.drops.get("ingress", 0) > 0
        # ``enqueued`` counts every arrival; the conservation law holds.
        assert stats.enqueued == len(packets)
        assert stats.enqueued == stats.packets + stats.dropped
        # Everything admitted eventually came out the other end.
        assert len(predictions) == stats.packets
        assert all(int(p) == 1 for p in predictions)

    def test_block_policy_never_drops(self):
        packets = [make_packet(ts=float(i)) for i in range(300)]
        engine = AsyncStreamEngine(
            ToyPipeline(delay_s=0.005),
            PacketFeatureExtractor(),
            batch_size=32,
            queue_depth=16,
            drop_policy="block",
        )
        predictions = engine.process(packets)
        assert len(predictions) == len(packets)
        assert engine.stats.dropped == 0


class TestDeadline:
    def test_single_packet_flushes_on_deadline(self):
        # batch_size is never reached; without the deadline this would
        # hang until end-of-stream.  The packet must flow through within
        # max_latency (plus scheduling slack), not wait for a full batch.
        engine = AsyncStreamEngine(
            ToyPipeline(),
            PacketFeatureExtractor(),
            batch_size=1024,
            max_latency=0.05,
        )

        async def scenario():
            async def trickle():
                yield make_packet(ts=0.0, size=800), None
                # Keep the stream open long past the deadline.
                await asyncio.sleep(0.4)

            return await engine.run(trickle())

        start = time.monotonic()
        predictions = asyncio.run(scenario())
        elapsed = time.monotonic() - start
        assert [int(p) for p in predictions] == [1]
        assert engine.stats.deadline_flushes >= 1
        assert elapsed < 1.0
        # The flush happened at the deadline, not at end-of-stream: the
        # recorded latency is far below the 0.4 s the stream stayed open.
        assert engine.stats.latency.max < 0.3

    def test_deadline_off_batches_by_size_only(self):
        packets = [make_packet(ts=float(i)) for i in range(100)]
        engine = AsyncStreamEngine(
            ToyPipeline(), PacketFeatureExtractor(), batch_size=30
        )
        engine.process(packets)
        assert engine.stats.deadline_flushes == 0
        assert engine.stats.batches == 4  # 30+30+30+10


class TestDrainAndCancel:
    def test_clean_drain_records_everything(self):
        packets = [make_packet(ts=float(i)) for i in range(257)]
        engine = AsyncStreamEngine(
            ToyPipeline(), PacketFeatureExtractor(), batch_size=64
        )
        predictions = engine.process(packets)
        assert len(predictions) == 257
        assert engine.stats.packets == 257
        assert engine.stats.batches == 5  # 4 full + 1 drain flush
        assert engine.stats.finished_at is not None

    def test_cancellation_cancels_all_stages(self):
        engine = AsyncStreamEngine(
            ToyPipeline(delay_s=0.01),
            PacketFeatureExtractor(),
            batch_size=4,
            infer_workers=2,
        )

        async def scenario():
            async def endless():
                i = 0
                while True:
                    yield make_packet(ts=float(i)), None
                    i += 1
                    if i % 16 == 0:
                        await asyncio.sleep(0)

            task = asyncio.create_task(engine.run(endless()))
            # Cancel once the first batch is recorded, not after a fixed
            # window: a free-running source keeps the event loop busy
            # until every stage queue is full (~18k packets here), and
            # only then do the executor threads get the GIL back to
            # finish a predict.  How long that takes depends on the host.
            deadline = time.monotonic() + 30.0
            while engine.stats.packets == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # Every stage task died with the run: nothing left behind.
            pending = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            return pending

        pending = asyncio.run(scenario())
        assert pending == []
        # The engine made progress before the cancel, and telemetry was
        # finalized on the way out.
        assert engine.stats.packets > 0
        assert engine.stats.finished_at is not None

    def test_source_error_propagates(self):
        engine = AsyncStreamEngine(
            ToyPipeline(), PacketFeatureExtractor(), batch_size=8
        )

        async def scenario():
            async def broken():
                yield make_packet(ts=0.0), None
                raise RuntimeError("capture truncated")

            await engine.run(broken())

        with pytest.raises(RuntimeError, match="capture truncated"):
            asyncio.run(scenario())


class TestTimedPipeline:
    def test_functional_equivalence_and_accounting(self):
        toy = ToyPipeline()
        timed = TimedPipeline(toy, per_batch_s=0.001)
        X = np.array([[600.0], [100.0]])
        assert np.array_equal(timed.predict(X), np.array([1, 0]))
        assert timed.calls == 1
        assert timed.busy_s >= 0.001
        assert timed.service_time(10) >= 0.001

    def test_channel_gate_serializes(self):
        toy = ToyPipeline()
        timed = TimedPipeline(toy, per_batch_s=0.05, max_channels=1)
        X = np.array([[600.0]])
        start = time.monotonic()
        threads = [
            threading.Thread(target=timed.predict, args=(X,)) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One channel: the three 50 ms calls serialize.
        assert time.monotonic() - start >= 0.15 * 0.9

    def test_validation(self):
        with pytest.raises(HomunculusError):
            TimedPipeline(object())
        with pytest.raises(HomunculusError):
            TimedPipeline(ToyPipeline(), per_batch_s=-1.0)

    def test_per_row_from_performance_estimate(self):
        class WithPerf(ToyPipeline):
            class performance:
                throughput_gpps = 1.0

        timed = TimedPipeline(WithPerf())
        assert timed.per_row_s == pytest.approx(1e-9)


class TestReplayPacing:
    def test_paced_replay_bounds_wallclock(self):
        # 200 packets over 2.0 s of capture at 100x -> ~20 ms of pacing.
        packets = [make_packet(ts=i * 0.01) for i in range(200)]
        engine = AsyncStreamEngine(
            ToyPipeline(), PacketFeatureExtractor(), batch_size=32,
            max_latency=0.005,
        )

        async def scenario():
            return await engine.run(replay(packets, speed=100.0))

        start = time.monotonic()
        predictions = asyncio.run(scenario())
        elapsed = time.monotonic() - start
        assert len(predictions) == 200
        assert elapsed >= 0.015  # pacing actually waited
