"""Bounded stage channels: the internal FIFO and the ingress.

``asyncio.Queue`` is general (many producers, many consumers, task
accounting) and pays for it on every operation; a serving pipeline only
ever connects one producer stage to one consumer stage, and at line
rate the queue operations *are* the hot path.  This module provides the
switch-style alternatives:

* :class:`BoundedChannel` — a bounded SPSC FIFO with a plain deque fast
  path and futures only for the empty/full edges; it always blocks when
  full, as host-internal stages must,
* :class:`ChunkChannel` — the ingress of a switch port: weighted lanes
  drained in deficit-round-robin order, depth counted in packets, and
  one of the :data:`DROP_POLICIES` applied to a packet that finds its
  lane full.

Single producer, single consumer: at most one task may block in a get
and one in a put at any time — exactly the stage topology of
:class:`~repro.serving.engine.AsyncStreamEngine`.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import HomunculusError

#: End-of-stream marker forwarded through stage queues.
SENTINEL = object()

#: Ingress drop policies (also the CLI ``--drop-policy`` spellings): what
#: :meth:`ChunkChannel.offer` does with a packet whose lane is full.
#: ``block`` refuses it (the caller awaits a put: backpressure to the
#: source), ``tail-drop`` sheds the arrival (a fixed-depth switch FIFO
#: under overload) and ``head-drop`` evicts the lane's oldest entry
#: (fresher data wins, when a stale verdict is worthless).
DROP_POLICIES = ("block", "tail-drop", "head-drop")


class BoundedChannel:
    """Bounded FIFO between exactly one producer and one consumer task.

    Example — the descriptor-ring idiom between two stages::

        ch = BoundedChannel(depth=256)
        ch.put_nowait(item)          # raises asyncio.QueueFull at depth
        await ch.put(item)           # blocks (backpressure) instead
        item = await ch.get()        # blocks on empty

    It always blocks when full: ``put``/``get`` keep ``asyncio.Queue``
    semantics so call sites read like queue code.
    """

    __slots__ = ("_items", "_depth", "_getter", "_putter")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"channel depth must be >= 1, got {depth}")
        self._items: deque = deque()
        self._depth = int(depth)
        self._getter: "asyncio.Future | None" = None
        self._putter: "asyncio.Future | None" = None

    def qsize(self) -> int:
        return len(self._items)

    def _wake(self, waiter: "asyncio.Future | None") -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def put_nowait(self, item) -> None:
        if len(self._items) >= self._depth:
            raise asyncio.QueueFull
        self._items.append(item)
        if self._getter is not None:
            self._wake(self._getter)
            self._getter = None

    async def put(self, item) -> None:
        while len(self._items) >= self._depth:
            waiter = asyncio.get_running_loop().create_future()
            self._putter = waiter
            try:
                await waiter
            finally:
                if self._putter is waiter:
                    self._putter = None
        self.put_nowait(item)

    def get_nowait(self):
        if not self._items:
            raise asyncio.QueueEmpty
        item = self._items.popleft()
        if self._putter is not None:
            self._wake(self._putter)
            self._putter = None
        return item

    async def get(self):
        while not self._items:
            waiter = asyncio.get_running_loop().create_future()
            self._getter = waiter
            try:
                await waiter
            finally:
                if self._getter is waiter:
                    self._getter = None
        return self.get_nowait()

    async def aclose(self) -> None:
        """Signal end-of-stream: enqueue the :data:`SENTINEL` in order."""
        await self.put(SENTINEL)


class ChunkChannel:
    """Bounded ingress of weighted lanes whose depth counts packets.

    Every entry is queued with its ``size`` (the packets it carries:
    a whole chunk, or one packet), and each lane holds at most ``depth``
    packets.  An entry larger than its lane's free space waits; one
    larger than the whole depth is admitted once the lane is empty, so
    no chunk can wedge its producer.  :meth:`offer` admits one packet
    under the channel's drop ``policy`` instead of waiting.

    The consumer takes queued entries with :meth:`get_many`, which
    drains the lanes by **deficit round robin**: a weighted lane earns
    ``weight`` credits each time the scheduler reaches it and pays one
    credit per packet it hands out, so over any backlogged interval lane
    *i* gets ``weight_i / sum(weights)`` of the packets.  An entry is
    never split; the credit a chunk overdraws is repaid from its lane's
    next rounds.  A lane of weight 0 is a *scavenger*, served only when
    every weighted lane is empty.  End of stream is put by
    :meth:`aclose` and handed out as the :data:`SENTINEL` once every
    lane is empty.

    Example — a 4:1 high/low split under tail-drop::

        ch = ChunkChannel(depth=512, weights=(4, 1), policy="tail-drop")
        ch.offer(urgent, lane=0)         # -> (admitted, displaced)
        ch.offer(bulk, lane=1)
        await ch.put(chunk, size=256)    # lane 0; waits while it does not fit
        entries, packets = await ch.get_many(limit=64)
        ch.qsize(), ch.lane_sizes()      # packets queued: total, per lane

    Single producer, single consumer, like :class:`BoundedChannel`.
    """

    __slots__ = ("weights", "policy", "_lanes", "_loads", "_load", "_depth",
                 "_closed", "_ring", "_cursor", "_deficits", "_scavengers",
                 "_scavenger_cursor", "_getter", "_putter")

    def __init__(self, depth: int, weights=(1,), policy: str = "block") -> None:
        if depth < 1:
            raise ValueError(f"channel depth must be >= 1, got {depth}")
        weights = tuple(int(w) for w in weights)
        if not weights:
            raise HomunculusError("a channel needs at least one lane")
        if any(w < 0 for w in weights):
            raise HomunculusError(f"lane weights must be >= 0, got {weights}")
        if not any(weights):
            raise HomunculusError("at least one lane weight must be positive")
        if policy not in DROP_POLICIES:
            raise HomunculusError(
                f"drop policy must be one of {DROP_POLICIES}, got {policy!r}")
        self.weights = weights
        self.policy = policy
        self._lanes = [deque() for _ in weights]
        self._loads = [0] * len(weights)
        self._load = 0
        self._depth = int(depth)
        self._closed = False
        self._getter: "asyncio.Future | None" = None
        self._putter: "asyncio.Future | None" = None
        # DRR state: the weighted lanes rotate in the ring, each with its
        # credit; scavengers sit outside it and are polled round robin.
        self._ring = [i for i, w in enumerate(weights) if w > 0]
        self._cursor = 0
        self._deficits = [0] * len(weights)
        self._deficits[self._ring[0]] = weights[self._ring[0]]
        self._scavengers = [i for i, w in enumerate(weights) if w == 0]
        self._scavenger_cursor = 0

    def qsize(self) -> int:
        """Packets queued over all lanes."""
        return self._load

    def lane_sizes(self) -> tuple:
        """Packets queued in every lane (telemetry)."""
        return tuple(self._loads)

    def _lane(self, lane: int) -> int:
        if not 0 <= lane < len(self._lanes):
            raise HomunculusError(
                f"lane {lane} out of range for {len(self._lanes)} lanes")
        return lane

    def offer(self, entry, lane: int = 0) -> "tuple[bool, object | None]":
        """Admit one packet's ``entry`` to ``lane`` under the drop policy.

        Returns ``(admitted, displaced)``: whether ``entry`` is now
        queued, and the entry that fell out — ``entry`` itself under
        ``tail-drop``, the lane's oldest under ``head-drop``, ``None``
        otherwise.  Never blocks; under ``block`` a refusal means the
        caller should fall back to an awaited :meth:`put`.
        """
        lane = self._lane(lane)
        queue = self._lanes[lane]
        displaced = None
        if self._loads[lane] >= self._depth:
            if self.policy == "block":
                return False, None
            if self.policy == "tail-drop":
                return False, entry
            displaced, size = queue.popleft()
            self._loads[lane] -= size
            self._load -= size
        queue.append((entry, 1))
        self._loads[lane] += 1
        self._load += 1
        getter = self._getter
        if getter is not None:
            self._getter = None
            if not getter.done():
                getter.set_result(None)
        return True, displaced

    def put_nowait(self, item, size: int, lane: int = 0) -> None:
        """Queue ``item`` of ``size`` packets; ``QueueFull`` if it does not fit.

        Putting the :data:`SENTINEL` closes the channel instead.
        """
        if lane:  # lane 0 always exists
            self._lane(lane)
        loads = self._loads
        load = loads[lane]
        if load and load + size > self._depth:
            raise asyncio.QueueFull
        if item is SENTINEL:
            self._closed = True
        else:
            self._lanes[lane].append((item, size))
            loads[lane] = load + size
            self._load += size
        getter = self._getter
        if getter is not None:
            self._getter = None
            if not getter.done():
                getter.set_result(None)

    async def put(self, item, size: int, lane: int = 0) -> None:
        """Wait until ``item`` fits in ``lane``, then queue it."""
        lane = self._lane(lane)
        loads = self._loads
        while loads[lane] and loads[lane] + size > self._depth:
            waiter = asyncio.get_running_loop().create_future()
            self._putter = waiter
            try:
                await waiter
            finally:
                if self._putter is waiter:
                    self._putter = None
        self.put_nowait(item, size, lane)

    def _next_lane(self) -> "int | None":
        """The lane deficit round robin serves next (``None``: all empty)."""
        lanes = self._lanes
        ring = self._ring
        if any(lanes[i] for i in ring):
            deficits = self._deficits
            # Serve the current lane while it has entries and credit;
            # otherwise advance, recharging the lane entered.  A lane
            # found empty forfeits its credit (work conservation).
            while True:
                lane = ring[self._cursor]
                if not lanes[lane]:
                    deficits[lane] = 0
                elif deficits[lane] > 0:
                    return lane
                self._cursor = (self._cursor + 1) % len(ring)
                lane = ring[self._cursor]
                deficits[lane] += self.weights[lane]
        if not any(lanes):
            return None
        # Weighted lanes idle: the current one starts a fresh round, and
        # the scavengers are polled round robin.
        lane = ring[self._cursor]
        self._deficits[lane] = self.weights[lane]
        scavengers = self._scavengers
        while True:
            lane = scavengers[self._scavenger_cursor]
            self._scavenger_cursor = (self._scavenger_cursor + 1) % len(scavengers)
            if lanes[lane]:
                return lane

    async def get_many(self, limit: int = 0) -> tuple:
        """Wait for an entry or end of stream, then pop entries in DRR order.

        Stops when every lane is empty or, with ``limit``, once the
        popped entries hold ``limit`` packets.  Returns ``(entries,
        packets)``; once the channel is closed and drained, the last
        entry is the :data:`SENTINEL`.
        """
        lanes = self._lanes
        while not (self._closed or any(lanes)):
            waiter = asyncio.get_running_loop().create_future()
            self._getter = waiter
            try:
                await waiter
            finally:
                if self._getter is waiter:
                    self._getter = None
        entries = []
        packets = 0
        loads = self._loads
        if len(lanes) == 1:  # one lane is a FIFO: no scheduling
            queue = lanes[0]
            while queue:
                item, size = queue.popleft()
                entries.append(item)
                packets += size
                if limit and packets >= limit:
                    break
            loads[0] -= packets
        else:
            deficits = self._deficits
            while (lane := self._next_lane()) is not None:
                item, size = lanes[lane].popleft()
                loads[lane] -= size
                deficits[lane] -= size
                entries.append(item)
                packets += size
                if limit and packets >= limit:
                    break
        self._load -= packets
        if self._closed and not (limit and packets >= limit) and not any(lanes):
            entries.append(SENTINEL)
        putter = self._putter
        if putter is not None:
            self._putter = None
            if not putter.done():
                putter.set_result(None)
        return entries, packets

    async def aclose(self) -> None:
        """Signal end-of-stream, handed out once every lane is drained."""
        await self.put(SENTINEL, 0)
