"""Chunked sources on the lossless FIFO ingress.

A source may yield :class:`PacketChunk` items, single packets and
``(packet, label)`` pairs, mixed.  On the block-mode FIFO ingress a
chunk is one queue entry with one arrival stamp, the ingress depth
counts packets, and the outputs must not change: predictions, served
packets and accuracy equal the per-item source and the synchronous
:class:`StreamProcessor`.  Every snapshot conserves packets, and the
ingress never holds more than ``queue_depth`` packets unless one
oversized chunk was admitted into an empty queue.
"""

import asyncio
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import HomunculusError
from repro.netsim.packet import Packet
from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor, StreamProcessor
from repro.serving import (
    AsyncStreamEngine,
    ChunkChannel,
    PacketChunk,
    replay,
    replay_chunks,
)
from repro.serving.channel import SENTINEL


class RowSumPipeline:
    """Predicts from the whole row, so every marker bin matters."""

    def predict(self, X):
        return (np.asarray(X).sum(axis=1) % 3).astype(int)


def make_stream(n: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    packets, ts = [], 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.5))
        host = int(rng.integers(6))
        packets.append(Packet(timestamp=ts, size=int(rng.integers(64, 1519)),
                              src_ip=host, dst_ip=100 + host % 3,
                              src_port=host, dst_port=80))
    labels = [None if i % 7 == 0 else i % 3 for i in range(n)]
    return packets, labels


async def mixed(packets, labels, plan, pause_every):
    """Cycle ``plan``: 0 yields one item, k > 0 a chunk of k packets.

    A single item is a bare packet when its label is ``None``, else a
    ``(packet, label)`` pair.
    """
    index = step = 0
    while index < len(packets):
        size = plan[step % len(plan)]
        step += 1
        if size == 0:
            label = labels[index]
            yield packets[index] if label is None else (packets[index], label)
            index += 1
        else:
            yield PacketChunk(packets[index:index + size],
                              labels[index:index + size])
            index += size
        if step % pause_every == 0:
            await asyncio.sleep(0)


def conserved(summary: dict) -> bool:
    return (summary["enqueued"]
            == summary["packets"] + summary["dropped"] + summary["in_flight"]
            and summary["in_flight"] >= 0)


def engine(batch_size: int, queue_depth: int, **kwargs) -> AsyncStreamEngine:
    return AsyncStreamEngine(RowSumPipeline(), FlowmarkerTracker(max_conversations=4),
                             batch_size=batch_size, queue_depth=queue_depth,
                             **kwargs)


@st.composite
def cases(draw):
    queue_depth = draw(st.integers(1, 32))
    return {
        "queue_depth": queue_depth,
        "batch_size": draw(st.integers(1, 48)),
        "plan": draw(st.lists(st.integers(0, 2 * queue_depth),
                              min_size=1, max_size=8)),
        "n": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 3)),
        "pause_every": draw(st.sampled_from((1, 3, 1000))),
    }


@settings(max_examples=40, deadline=None)
@example(case={"queue_depth": 1, "batch_size": 1, "plan": [2], "n": 40,
               "seed": 0, "pause_every": 1000})
@example(case={"queue_depth": 4, "batch_size": 3, "plan": [8, 0, 1], "n": 100,
               "seed": 1, "pause_every": 1})
@given(case=cases())
def test_chunked_source_matches_per_item_and_sync(case):
    queue_depth, batch_size = case["queue_depth"], case["batch_size"]
    plan, n, pause_every = case["plan"], case["n"], case["pause_every"]
    seed = case["seed"]
    packets, labels = make_stream(n, seed)
    chunked = engine(batch_size, queue_depth)
    loads = []
    put_nowait = ChunkChannel.put_nowait

    def spy(channel, item, size, lane=0):
        put_nowait(channel, item, size, lane)
        if item is not SENTINEL:
            loads.append((channel.qsize(), size))

    async def scenario():
        run = asyncio.create_task(
            chunked.run(mixed(packets, labels, plan, pause_every)))
        snapshots = []
        while not run.done():
            snapshots.append(chunked.stats.summary())
            await asyncio.sleep(0)
        predictions = await run
        snapshots.append(chunked.stats.summary())
        return predictions, snapshots

    with mock.patch.object(ChunkChannel, "put_nowait", spy):
        predictions, snapshots = asyncio.run(scenario())

    assert all(conserved(summary) for summary in snapshots)
    final = snapshots[-1]
    assert final["in_flight"] == 0 and final["dropped"] == 0
    assert final["enqueued"] == final["packets"] == n
    # Depth counts packets; only a chunk larger than the whole queue,
    # admitted into an empty one, may exceed it.
    assert sum(size for _, size in loads) == n
    assert all(load <= queue_depth or load == size for load, size in loads)

    per_item = engine(batch_size, queue_depth)
    expected = asyncio.run(per_item.run(replay(packets, labels)))
    sync = StreamProcessor(RowSumPipeline(), FlowmarkerTracker(max_conversations=4),
                           batch_size=batch_size)
    assert np.array_equal(predictions, expected)
    assert np.array_equal(predictions, sync.process(packets, labels))
    assert final["packets"] == per_item.stats.packets == sync.stats.packets
    assert final["accuracy"] == per_item.stats.summary()["accuracy"]
    assert chunked.stats.confusion == sync.stats.confusion


@pytest.mark.parametrize("knobs", [
    {"drop_policy": "tail-drop"},
    {"drop_policy": "head-drop"},
    {"drop_policy": "block", "priorities": (2, 1),
     "lane_of": lambda packet: packet.src_ip % 2},
])
def test_dropping_and_lane_ingress_split_chunks(knobs):
    # The per-packet disciplines admit a chunk packet by packet: every
    # packet is counted, and lossless lanes serve every packet.
    packets, labels = make_stream(200, 0)
    served = engine(8, 16, **knobs)
    predictions = served.process(packets, labels)
    stats = served.stats
    assert stats.enqueued == 200 == stats.packets + stats.dropped
    assert len(predictions) == stats.packets
    if knobs["drop_policy"] == "block":
        assert stats.dropped == 0
        assert set(stats.lane_latency) == {0, 1}
        assert sum(h.count for h in stats.lane_latency.values()) == 200


def test_unpaced_process_shares_one_stamp_per_chunk():
    # process(speed=0) feeds min(batch_size, queue_depth)-packet chunks:
    # the ingress sees whole chunks, and every packet of a chunk carries
    # the chunk's arrival stamp.
    class Stamps:
        def __init__(self):
            self.times = []

        def observe_batch(self, rows, labels, predictions, times):
            self.times.extend(times.tolist())

    packets = [Packet(timestamp=float(i), size=600, src_ip=1, dst_ip=2,
                      src_port=1, dst_port=2) for i in range(100)]
    capture = Stamps()
    served = AsyncStreamEngine(RowSumPipeline(), PacketFeatureExtractor(),
                               batch_size=32, queue_depth=20, capture=capture)
    sizes = []
    put_nowait = ChunkChannel.put_nowait

    def spy(channel, item, size, lane=0):
        put_nowait(channel, item, size, lane)
        sizes.append(size)

    with mock.patch.object(ChunkChannel, "put_nowait", spy):
        predictions = served.process(packets)
    assert len(predictions) == 100
    assert sizes[:-1] == [20] * 5 and sizes[-1] == 0  # then the sentinel
    stamps = np.asarray(capture.times).reshape(5, 20)
    assert (stamps == stamps[:, :1]).all()
    assert served.stats.latency.count == 100


class TestChunkChannel:
    def test_depth_counts_packets(self):
        async def scenario():
            ch = ChunkChannel(8)
            ch.put_nowait("a", 5)
            assert ch.qsize() == 5
            with pytest.raises(asyncio.QueueFull):
                ch.put_nowait("b", 4)
            ch.put_nowait("b", 3)
            ch.put_nowait("c", 0)
            assert ch.qsize() == 8
            assert await ch.get_many(limit=4) == (["a"], 5)
            assert ch.qsize() == 3
            assert await ch.get_many() == (["b", "c"], 3)
            assert ch.qsize() == 0

        asyncio.run(scenario())

    def test_oversized_chunk_waits_for_an_empty_queue(self):
        async def scenario():
            ch = ChunkChannel(4)
            ch.put_nowait("small", 1)
            put = asyncio.create_task(ch.put("big", 10))
            await asyncio.sleep(0)
            assert not put.done()  # 1 + 10 > 4: waits
            assert await ch.get_many() == (["small"], 1)
            await put  # empty: admitted whole
            assert ch.qsize() == 10
            closing = asyncio.create_task(ch.aclose())
            await asyncio.sleep(0)
            assert not closing.done()  # over depth: even the sentinel waits
            assert await ch.get_many() == (["big"], 10)
            await closing
            assert await ch.get_many() == ([SENTINEL], 0)

        asyncio.run(scenario())

    def test_get_many_waits_for_an_item(self):
        async def scenario():
            ch = ChunkChannel(4)
            get = asyncio.create_task(ch.get_many())
            await asyncio.sleep(0)
            assert not get.done()
            ch.put_nowait("a", 2)
            assert await get == (["a"], 2)

        asyncio.run(scenario())

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            ChunkChannel(0)


class TestReplayChunks:
    def test_chunks_cover_the_stream_in_order(self):
        packets, labels = make_stream(10, 0)

        async def collect():
            return [chunk async for chunk in replay_chunks(packets, labels, 4)]

        chunks = asyncio.run(collect())
        assert [len(chunk.packets) for chunk in chunks] == [4, 4, 2]
        assert [p for chunk in chunks for p in chunk.packets] == packets
        assert [label for chunk in chunks for label in chunk.labels] == labels

    def test_unlabeled_and_validation(self):
        assert PacketChunk(["a", "b"]).labels == [None, None]
        with pytest.raises(HomunculusError):
            PacketChunk(["a", "b"], [1])

        async def bad():
            async for _ in replay_chunks([], size=0):
                pass

        with pytest.raises(HomunculusError):
            asyncio.run(bad())

    def test_replay_keeps_pairs(self):
        # The per-packet replay is unchanged: (packet, label) pairs.
        packets, labels = make_stream(3, 0)

        async def collect():
            return [item async for item in replay(packets, labels)]

        assert asyncio.run(collect()) == list(zip(packets, labels))
