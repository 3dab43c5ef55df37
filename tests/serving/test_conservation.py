"""Every packet is accounted for in every stats snapshot.

A polling task reads ``stats.summary()`` while the engine serves, after
every event-loop turn, and once more after the run.  Each snapshot must
satisfy ``enqueued == packets + dropped + in_flight``, and the last one
``in_flight == 0``, so ``enqueued == packets + dropped``.  The engine
knobs are drawn at random: batch size, queue depth, extraction quantum,
drop policy and priority lanes.  In block mode with one FIFO lane the
predictions must also equal the synchronous ``StreamProcessor`` row
for row.
"""

import asyncio
import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.runtime import FlowmarkerTracker, StreamProcessor
from repro.serving import DROP_POLICIES, AsyncStreamEngine


class RowSumPipeline:
    """Predicts from the whole row, so every marker bin matters.

    ``delay_s`` per batch backs the stages up, so the drop policies
    have something to drop.
    """

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    def predict(self, X):
        if self.delay_s:
            time.sleep(self.delay_s)
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


async def bursty(packets, labels, pause_every: int):
    """Yield ``(packet, label)``, pausing briefly every ``pause_every``."""
    for index, packet in enumerate(packets):
        yield packet, labels[index]
        if index % pause_every == pause_every - 1:
            await asyncio.sleep(0.001)


def conserved(summary: dict) -> bool:
    return (summary["enqueued"]
            == summary["packets"] + summary["dropped"] + summary["in_flight"]
            and summary["in_flight"] >= 0)


engine_knobs = st.fixed_dictionaries({
    "batch_size": st.integers(1, 48),
    "queue_depth": st.integers(1, 48),
    "extract_quantum": st.sampled_from((0, 1, 5, 32)),
    "drop_policy": st.sampled_from(DROP_POLICIES),
    "priorities": st.none() | st.lists(st.integers(0, 4), min_size=1, max_size=3)
    .filter(any).map(tuple),
})


def overload(policy: str, priorities=None) -> dict:
    """Knobs under which a free-running source overflows the ingress."""
    return {"batch_size": 1, "queue_depth": 1, "extract_quantum": 1,
            "drop_policy": policy, "priorities": priorities}


@settings(max_examples=40, deadline=None)
@example(knobs=overload("tail-drop"), n=300, seed=0, pause_every=1000, delay_s=2e-4)
@example(knobs=overload("head-drop", (2, 1)), n=300, seed=1, pause_every=1000,
         delay_s=2e-4)
@example(knobs=overload("block", (1, 0)), n=200, seed=2, pause_every=1000,
         delay_s=2e-4)
@given(knobs=engine_knobs, n=st.integers(1, 300), seed=st.integers(0, 3),
       pause_every=st.sampled_from((1, 7, 50, 1000)),
       delay_s=st.sampled_from((0.0, 2e-4)))
def test_every_snapshot_conserves_packets(knobs, n, seed, pause_every, delay_s):
    packets, labels = make_stream(n, seed)
    lanes = knobs["priorities"]
    lane_of = (lambda packet: packet.src_ip % len(lanes)) if lanes else None
    engine = AsyncStreamEngine(
        RowSumPipeline(delay_s), FlowmarkerTracker(max_conversations=4),
        infer_workers=2, lane_of=lane_of, **knobs)

    async def scenario():
        run = asyncio.create_task(
            engine.run(bursty(packets, labels, pause_every)))
        snapshots = []
        while not run.done():
            snapshots.append(engine.stats.summary())
            await asyncio.sleep(0)
        predictions = await run
        snapshots.append(engine.stats.summary())
        return predictions, snapshots

    predictions, snapshots = asyncio.run(scenario())
    assert len(snapshots) > 1
    assert all(conserved(summary) for summary in snapshots)
    final = snapshots[-1]
    assert final["in_flight"] == 0
    assert final["enqueued"] == n == final["packets"] + final["dropped"]
    assert len(predictions) == final["packets"]
    if knobs["drop_policy"] == "block":
        assert final["dropped"] == 0
        if lanes is None:
            sync = StreamProcessor(RowSumPipeline(),
                                   FlowmarkerTracker(max_conversations=4),
                                   batch_size=knobs["batch_size"])
            assert np.array_equal(predictions, sync.process(packets, labels))
            assert engine.stats.class_counts == sync.stats.class_counts
            assert engine.stats.confusion == sync.stats.confusion
