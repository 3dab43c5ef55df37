"""``ChunkChannel`` against the per-packet ingress channels it replaced.

``channel_oracle`` holds the old ``PriorityChannel`` (weighted lanes,
deficit round robin) and ``BoundedChannel.offer`` (the drop policies on
one FIFO).  Random sequences of ``offer``, ``put_nowait``,
``get_many(limit)`` and close, over random depths, lane weights
(scavengers of weight 0 included) and policies, must give the same
admitted/displaced pairs, the same pop order and the same per-lane
sizes on both.  Entries carrying several packets have no counterpart
there, so the second test feeds the oracle a chunk's packets one by one
and requires the packets the new channel serves per lane to stay within
one quantum plus one entry of the oracle's: DRR pays one credit per
packet, and a chunk's overdraft is repaid in the next rounds.
"""

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

import channel_oracle
from repro.serving.channel import DROP_POLICIES, SENTINEL, ChunkChannel

weights_st = (st.lists(st.integers(0, 3), min_size=1, max_size=4)
              .filter(any).map(tuple))

op_st = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 3)),
    st.tuples(st.just("put"), st.integers(0, 3)),
    st.tuples(st.just("get"), st.integers(0, 4)),
    st.tuples(st.just("close")),
)


def oracle_get_many(oracle, limit: int) -> list:
    """``get_many(limit)`` spelled with the oracle's ``get_nowait``."""
    items = []
    while True:
        try:
            item = oracle.get_nowait()
        except asyncio.QueueEmpty:
            break
        items.append(item)
        if item is channel_oracle.SENTINEL or (limit and len(items) >= limit):
            break
    return items


def put_outcome(put, *args) -> bool:
    try:
        put(*args)
    except asyncio.QueueFull:
        return False
    return True


@settings(max_examples=300, deadline=None)
@example(depth=2, weights=(2, 0, 1), policy="head-drop",
         ops=[("offer", 1), ("offer", 1), ("offer", 1), ("offer", 0),
              ("get", 1), ("offer", 2), ("get", 0), ("close",), ("get", 2)])
@given(depth=st.integers(1, 4), weights=weights_st,
       policy=st.sampled_from(DROP_POLICIES),
       ops=st.lists(op_st, max_size=60))
def test_same_admissions_pops_and_sizes_as_oracle(depth, weights, policy, ops):
    oracle = channel_oracle.PriorityChannel(depth, weights, discipline=policy)
    # One lane: the old engine's FIFO ingress, BoundedChannel.offer.
    fifo = (channel_oracle.BoundedChannel(depth, discipline=policy)
            if len(weights) == 1 else None)
    channel = ChunkChannel(depth, weights, policy)
    closed = False

    async def scenario():
        nonlocal closed, fifo
        for index, op in enumerate(ops):
            kind = op[0]
            if kind in ("offer", "put"):
                if closed:
                    continue
                lane = op[1] % len(weights)
                if kind == "offer":
                    expected = oracle.offer(index, lane)
                    assert channel.offer(index, lane) == expected
                    if fifo is not None:
                        assert fifo.offer(index) == expected
                else:
                    expected = put_outcome(oracle.put_nowait, index, lane)
                    assert put_outcome(channel.put_nowait, index, 1, lane) == expected
                    if fifo is not None:
                        assert put_outcome(fifo.put_nowait, index) == expected
            elif kind == "get":
                if oracle.qsize() == 0 and not closed:
                    continue  # get_many would wait for an entry
                limit = op[1]
                expected = oracle_get_many(oracle, limit)
                entries, packets = await channel.get_many(limit)
                assert [SENTINEL if e is channel_oracle.SENTINEL else e
                        for e in expected] == entries
                assert packets == len([e for e in entries if e is not SENTINEL])
                if fifo is not None:
                    assert oracle_get_many(fifo, limit) == expected
            else:
                closed = True
                oracle.close()
                await channel.aclose()
                fifo = None  # its end-of-stream takes a queue slot
            assert channel.qsize() == oracle.qsize()
            assert channel.lane_sizes() == oracle.lane_sizes()
            if fifo is not None:
                assert fifo.qsize() == oracle.qsize()

    asyncio.run(scenario())


@settings(max_examples=100, deadline=None)
@example(lanes=[(1, [4], 30), (1, [1], 30)])
@given(lanes=st.lists(st.tuples(st.integers(1, 3),
                                st.lists(st.integers(1, 4), min_size=1, max_size=3),
                                st.integers(1, 40)),
                      min_size=2, max_size=3))
def test_chunk_service_tracks_the_oracle_in_packets(lanes):
    # Lane ``i`` has weight ``w`` and ``count`` entries whose sizes
    # cycle through ``pattern``, so lanes differ in their mean size.
    weights = [w for w, _, _ in lanes]
    sizes = [[pattern[j % len(pattern)] for j in range(count)]
             for _, pattern, count in lanes]
    total = sum(map(sum, sizes))
    channel = ChunkChannel(total, weights)
    oracle = channel_oracle.PriorityChannel(total, weights)
    for lane, lane_sizes in enumerate(sizes):
        for size in lane_sizes:
            channel.put_nowait(lane, size, lane)
            for _ in range(size):
                oracle.put_nowait(lane, lane)
    served = [0] * len(weights)
    oracle_served = [0] * len(weights)
    bound = max(weights) + max(map(max, sizes))

    async def scenario():
        # Compare only while every lane is backlogged on both sides.
        while all(channel.lane_sizes()) and all(oracle.lane_sizes()):
            (lane,), packets = await channel.get_many(1)
            served[lane] += packets
            while sum(oracle_served) < sum(served):
                oracle_served[oracle.get_nowait()] += 1
            assert all(abs(mine - theirs) <= bound
                       for mine, theirs in zip(served, oracle_served))

    asyncio.run(scenario())
