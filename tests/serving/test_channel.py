"""Unit tests for the ingress drop policies and its DRR lanes."""

import asyncio

import pytest

from repro.errors import HomunculusError
from repro.serving.channel import DROP_POLICIES, SENTINEL, ChunkChannel


def pop(ch: ChunkChannel, limit: int = 1) -> list:
    """The entries one ``get_many(limit)`` hands out."""
    entries, _ = asyncio.run(ch.get_many(limit))
    return entries


class TestDisciplines:
    def test_registry_names(self):
        assert set(DROP_POLICIES) == {"block", "tail-drop", "head-drop"}

    def test_unknown_discipline_rejected(self):
        with pytest.raises(HomunculusError):
            ChunkChannel(8, policy="wred")

    def test_block_refuses_when_full(self):
        ch = ChunkChannel(1, policy="block")
        assert ch.offer("a") == (True, None)
        assert ch.offer("b") == (False, None)  # caller escalates to put()
        assert ch.qsize() == 1

    def test_tail_drop_sheds_the_arrival(self):
        ch = ChunkChannel(2, policy="tail-drop")
        ch.offer("a")
        ch.offer("b")
        admitted, displaced = ch.offer("c")
        assert (admitted, displaced) == (False, "c")
        assert pop(ch) == ["a"]  # queue content untouched

    def test_head_drop_evicts_the_oldest(self):
        ch = ChunkChannel(2, policy="head-drop")
        ch.offer("a")
        ch.offer("b")
        admitted, displaced = ch.offer("c")
        assert (admitted, displaced) == (True, "a")
        assert pop(ch, 0) == ["b", "c"]
        assert ch.qsize() == 0

    def test_offer_wakes_blocked_getter(self):
        async def scenario():
            ch = ChunkChannel(4, policy="tail-drop")
            task = asyncio.create_task(ch.get_many())
            await asyncio.sleep(0)
            ch.offer("x")
            return await task

        assert asyncio.run(scenario()) == (["x"], 1)


class TestPriorityChannel:
    def test_validation(self):
        with pytest.raises(HomunculusError):
            ChunkChannel(8, ())
        with pytest.raises(HomunculusError):
            ChunkChannel(8, (0, 0))  # needs one positive weight
        with pytest.raises(HomunculusError):
            ChunkChannel(8, (1, -2))
        with pytest.raises(ValueError):
            ChunkChannel(0, (1,))
        with pytest.raises(HomunculusError):
            ChunkChannel(8, (1, 1)).put_nowait("x", 1, lane=2)
        with pytest.raises(HomunculusError):
            ChunkChannel(8, (1, 1)).offer("x", lane=-1)

    def test_single_lane_degenerates_to_fifo(self):
        ch = ChunkChannel(8, (3,))
        for i in range(5):
            ch.put_nowait(i, 1)
        assert [pop(ch)[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_drr_interleaves_by_weight(self):
        ch = ChunkChannel(16, (2, 1))
        for i in range(6):
            ch.put_nowait(("hi", i), 1, 0)
        for i in range(3):
            ch.put_nowait(("lo", i), 1, 1)
        order = [entry[0] for entry in pop(ch, 0)]
        # 2:1 service while both lanes are backlogged.
        assert order == ["hi", "hi", "lo", "hi", "hi", "lo", "hi", "hi", "lo"]

    def test_drr_charges_one_credit_per_packet(self):
        # A 3-packet chunk overdraws its lane's 2 credits; the debt is
        # repaid from the next rounds, so the lane is skipped once.
        ch = ChunkChannel(16, (2, 1))
        for i in range(3):
            ch.put_nowait(("hi", i), 3, 0)
        for i in range(6):
            ch.put_nowait(("lo", i), 1, 1)
        assert pop(ch, 0) == [("hi", 0), ("lo", 0), ("hi", 1), ("lo", 1),
                              ("lo", 2), ("hi", 2), ("lo", 3), ("lo", 4),
                              ("lo", 5)]

    def test_work_conserving_when_a_lane_is_empty(self):
        ch = ChunkChannel(16, (4, 1))
        for i in range(3):
            ch.put_nowait(i, 1, 1)  # only the low lane has traffic
        assert [pop(ch)[0] for _ in range(3)] == [0, 1, 2]

    def test_zero_weight_lane_is_scavenger(self):
        ch = ChunkChannel(16, (1, 0))
        ch.put_nowait("bulk", 1, 1)
        ch.put_nowait("urgent", 1, 0)
        # The weighted lane is served first even though bulk arrived first.
        assert pop(ch) == ["urgent"]
        assert pop(ch) == ["bulk"]
        assert ch.qsize() == 0

    def test_per_lane_depth_and_discipline(self):
        ch = ChunkChannel(2, (1, 1), policy="tail-drop")
        assert ch.offer("a", 0) == (True, None)
        assert ch.offer("b", 0) == (True, None)
        assert ch.offer("c", 0) == (False, "c")  # lane 0 full
        assert ch.offer("d", 1) == (True, None)  # lane 1 unaffected
        assert ch.lane_sizes() == (2, 1)

    def test_head_drop_keeps_size_stable(self):
        ch = ChunkChannel(2, (1,), policy="head-drop")
        ch.offer("a")
        ch.offer("b")
        admitted, displaced = ch.offer("c")
        assert (admitted, displaced) == (True, "a")
        assert ch.qsize() == 2

    def test_close_yields_sentinel_after_drain(self):
        ch = ChunkChannel(8, (1, 2))
        ch.put_nowait("x", 1, 0)
        asyncio.run(ch.aclose())
        assert pop(ch) == ["x"]
        assert pop(ch) == [SENTINEL]
        assert pop(ch) == [SENTINEL]  # closed stays closed

    def test_blocking_get_woken_by_close(self):
        async def scenario():
            ch = ChunkChannel(4, (1,))
            task = asyncio.create_task(ch.get_many())
            await asyncio.sleep(0)
            await ch.aclose()
            return await task

        assert asyncio.run(scenario()) == ([SENTINEL], 0)

    def test_blocking_put_woken_by_pop(self):
        async def scenario():
            ch = ChunkChannel(1, (1, 1))
            ch.put_nowait("a", 1, 0)

            async def producer():
                await ch.put("b", 1, 0)
                return "done"

            task = asyncio.create_task(producer())
            await asyncio.sleep(0)
            assert not task.done()
            assert await ch.get_many(1) == (["a"], 1)
            await asyncio.sleep(0)
            result = await task
            return result, (await ch.get_many(1))[0][0]

        assert asyncio.run(scenario()) == ("done", "b")
