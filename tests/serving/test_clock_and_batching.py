"""Tests for the serving clocks, trace replay, and the micro-batcher."""

import asyncio

import numpy as np
import pytest

from repro.errors import HomunculusError
from repro.netsim.packet import Packet
from repro.serving import (
    LatencyHistogram,
    MicroBatcher,
    VirtualClock,
    loop_replay,
    replay,
)
from repro.serving.batching import SENTINEL


def make_packet(ts=0.0, size=100, src=1, dst=2):
    return Packet(timestamp=ts, size=size, src_ip=src, dst_ip=dst,
                  src_port=1000, dst_port=2000)


class TestVirtualClock:
    def test_sleep_advances_without_waiting(self):
        clock = VirtualClock()

        async def scenario():
            await clock.sleep(3600.0)
            return clock.now()

        assert asyncio.run(scenario()) == 3600.0

    def test_advance_rejects_negative(self):
        with pytest.raises(HomunculusError):
            VirtualClock().advance(-1.0)


class TestReplay:
    def test_unpaced_yields_everything_in_order(self):
        packets = [make_packet(ts=float(i)) for i in range(10)]

        async def collect():
            return [item async for item in replay(packets, labels=range(10))]

        items = asyncio.run(collect())
        assert [p.timestamp for p, _ in items] == [float(i) for i in range(10)]
        assert [label for _, label in items] == list(range(10))

    def test_virtual_pacing_is_deterministic(self):
        packets = [make_packet(ts=float(i)) for i in range(5)]
        clock = VirtualClock()

        async def collect():
            return [item async for item in replay(packets, speed=2.0, clock=clock)]

        items = asyncio.run(collect())
        assert len(items) == 5
        # 4 seconds of capture replayed at 2x -> 2 virtual seconds.
        assert clock.now() == pytest.approx(2.0)

    def test_negative_speed_rejected(self):
        async def drain():
            async for _ in replay([], speed=-1.0):
                pass

        with pytest.raises(HomunculusError):
            asyncio.run(drain())


def take(source, n, stop):
    """Collect ``n`` items from ``source``, set ``stop``, then drain it."""

    async def collect():
        items = []
        async for item in source:
            items.append(item)
            if len(items) == n:
                stop.set()
        return items

    return asyncio.run(collect())


class TestLoopReplay:
    def trace(self):
        return [make_packet(ts=ts) for ts in (10.0, 10.5, 12.0)]

    def test_timestamps_stay_monotonic_across_laps(self):
        stop = asyncio.Event()
        items = take(loop_replay(self.trace(), None, 1e6, stop), 9, stop)
        stamps = [p.timestamp for p, _ in items]
        assert len(stamps) == 9
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        # Each lap shifts by the trace span plus one second.
        assert stamps[3:6] == [13.0, 13.5, 15.0]
        assert stamps[6:] == [16.0, 16.5, 18.0]

    def test_labels_pass_through_every_lap(self):
        stop = asyncio.Event()
        items = take(loop_replay(self.trace(), ["a", "b", "c"], 1e6, stop),
                     7, stop)
        assert [label for _, label in items] == list("abcabca")
        stop = asyncio.Event()
        items = take(loop_replay(self.trace(), None, 1e6, stop), 4, stop)
        assert [label for _, label in items] == [None] * 4

    def test_stops_at_the_next_packet_once_stop_is_set(self):
        stop = asyncio.Event()
        # Exactly the items before the stop: nothing leaks after it.
        assert len(take(loop_replay(self.trace(), None, 1e6, stop), 5,
                        stop)) == 5

    def test_paced_stream_stops_promptly(self):
        async def run():
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            started = loop.time()
            loop.call_later(0.1, stop.set)
            count = 0
            async for _ in loop_replay(self.trace(), None, 1000.0, stop):
                count += 1
            return count, loop.time() - started

        count, elapsed = asyncio.run(run())
        # ~1000 pkt/s for 0.1 s, paced in chunks of 10 packets.
        assert 0 < count < 1000
        assert elapsed < 1.0

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(HomunculusError, match="rate"):
            loop_replay(self.trace(), None, rate, asyncio.Event())

    def test_bad_traces_rejected(self):
        with pytest.raises(HomunculusError, match="non-empty"):
            loop_replay([], None, 100.0, asyncio.Event())
        with pytest.raises(HomunculusError, match="labels"):
            loop_replay(self.trace(), [1], 100.0, asyncio.Event())


def run_batcher(chunks, batch_size, max_latency=None, gap=0.0):
    """Feed chunks (with optional real-time gaps) through a MicroBatcher."""
    flushes = []
    batcher = MicroBatcher(
        batch_size=batch_size,
        max_latency=max_latency,
        on_flush=lambda n, deadline: flushes.append((n, deadline)),
    )

    async def scenario():
        q_in, q_out = asyncio.Queue(), asyncio.Queue()
        task = asyncio.create_task(batcher.run(q_in, q_out))
        for chunk in chunks:
            await q_in.put(chunk)
            if gap:
                await asyncio.sleep(gap)
        await q_in.put(SENTINEL)
        batches = []
        while True:
            batch = await q_out.get()
            if batch is SENTINEL:
                break
            batches.append(batch)
        await task
        return batches

    return asyncio.run(scenario()), flushes


class TestMicroBatcher:
    def test_size_flush_exact_boundaries(self):
        batches, flushes = run_batcher([list(range(10))], batch_size=4)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0] == [0, 1, 2, 3]
        # Only the end-of-stream drain is partial, and nothing was a
        # deadline flush.
        assert all(not deadline for _, deadline in flushes)

    def test_deadline_flush_single_item(self):
        # One lone item, batch never fills: the deadline must flush it.
        batches, flushes = run_batcher(
            [[42]], batch_size=64, max_latency=0.05, gap=0.3
        )
        assert batches == [[42]]
        assert flushes == [(1, True)]

    def test_deadline_not_hit_when_batch_fills_first(self):
        batches, flushes = run_batcher(
            [list(range(8))], batch_size=4, max_latency=10.0
        )
        assert [len(b) for b in batches] == [4, 4]
        assert all(not deadline for _, deadline in flushes)

    def test_bad_parameters(self):
        with pytest.raises(HomunculusError):
            MicroBatcher(batch_size=0)
        with pytest.raises(HomunculusError):
            MicroBatcher(batch_size=1, max_latency=0.0)


class TestLatencyHistogram:
    def test_percentiles_bracket_observations(self):
        hist = LatencyHistogram()
        for value in np.linspace(1e-4, 1e-2, 500):
            hist.observe(float(value))
        p50 = hist.percentile(50)
        p99 = hist.percentile(99)
        # Log-binned estimates: within one bin (~15% relative) of truth.
        assert 3e-3 < p50 < 7e-3
        assert 8e-3 < p99 < 1.2e-2
        assert hist.count == 500

    def test_vectorized_matches_scalar(self):
        values = np.geomspace(1e-6, 1.0, 200)
        one = LatencyHistogram()
        for v in values:
            one.observe(float(v))
        many = LatencyHistogram()
        many.observe_batch(values)
        assert np.array_equal(one._counts, many._counts)
        assert one.count == many.count
        for q in (50, 90, 95, 99):
            assert one.percentile(q) == many.percentile(q)

    def test_empty_percentile(self):
        assert LatencyHistogram().percentile(99) == 0.0

    def test_bad_percentile(self):
        with pytest.raises(HomunculusError):
            LatencyHistogram().percentile(101)
