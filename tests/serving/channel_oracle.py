"""The per-packet ingress channels the engine's one ``ChunkChannel`` replaced.

This is the test oracle: the queue disciplines, ``BoundedChannel`` with
its ``offer`` admission and the deficit-round-robin ``PriorityChannel``
as they stood before ``ChunkChannel`` took over lanes and drop
policies, kept verbatim below the imports.  Every item is one packet
here.  ``test_channel_oracle.py`` requires ``ChunkChannel`` to return
the same admitted/displaced pairs, pop the same items in the same order
and report the same per-lane sizes under random operation sequences.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import HomunculusError
from repro.serving.channel import SENTINEL


class QueueDiscipline:
    """Admission policy for a full bounded queue.

    A discipline decides what happens when an item arrives at a queue
    that is already at capacity.  It is stateless: :meth:`admit` is
    handed the queue's deque and returns

    ``(admitted, displaced)``
        *admitted* — whether the arriving item is now in the queue;
        *displaced* — the item that fell out (the arrival itself under
        ``tail-drop``, the previously queued head under ``head-drop``,
        ``None`` otherwise).

    Example — a tail-drop channel drops the arrival once full::

        ch = BoundedChannel(1, discipline="tail-drop")
        assert ch.offer("a") == (True, None)
        assert ch.offer("b") == (False, "b")    # queue full: arrival lost

    The three built-ins mirror switch ingress-queue behaviour:

    ``block``
        lossless: the arrival is refused and the caller is expected to
        await :meth:`BoundedChannel.put` (backpressure to the source).
    ``tail-drop``
        the arriving item is dropped — a fixed-depth switch FIFO under
        overload.
    ``head-drop``
        the *oldest* queued item is evicted to make room — fresher data
        wins, the right policy when stale telemetry is worthless.
    """

    #: Registry name, also the CLI ``--drop-policy`` spelling.
    name: str = "block"

    def admit(self, items: deque, depth: int, item) -> "tuple[bool, object | None]":
        if len(items) < depth:
            items.append(item)
            return True, None
        return self._on_full(items, item)

    def _on_full(self, items: deque, item) -> "tuple[bool, object | None]":
        # block: refuse; the caller escalates to an awaited put().
        return False, None


class TailDrop(QueueDiscipline):
    """Drop the arriving item when the queue is full."""

    name = "tail-drop"

    def _on_full(self, items: deque, item) -> "tuple[bool, object | None]":
        return False, item


class HeadDrop(QueueDiscipline):
    """Evict the oldest queued item to admit the arrival."""

    name = "head-drop"

    def _on_full(self, items: deque, item) -> "tuple[bool, object | None]":
        displaced = items.popleft()
        items.append(item)
        return True, displaced


#: Discipline registry, keyed by CLI spelling.
DISCIPLINES = {cls.name: cls for cls in (QueueDiscipline, TailDrop, HeadDrop)}


def make_discipline(discipline: "str | QueueDiscipline") -> QueueDiscipline:
    """Resolve a discipline name (or pass an instance through)."""
    if isinstance(discipline, QueueDiscipline):
        return discipline
    cls = DISCIPLINES.get(discipline)
    if cls is None:
        raise HomunculusError(
            f"unknown queue discipline {discipline!r}; "
            f"expected one of {sorted(DISCIPLINES)}"
        )
    return cls()


class BoundedChannel:
    """Bounded FIFO between exactly one producer and one consumer task.

    Example — the descriptor-ring idiom between two stages::

        ch = BoundedChannel(depth=256)
        ch.put_nowait(item)          # raises asyncio.QueueFull at depth
        await ch.put(item)           # blocks (backpressure) instead
        item = await ch.get()        # blocks on empty

    The configured :class:`QueueDiscipline` is applied by
    :meth:`offer`, the engine's admission fast path; ``put``/``get``
    keep ``asyncio.Queue`` semantics so call sites read like queue code.
    """

    __slots__ = ("_items", "_depth", "_getter", "_putter", "discipline")

    def __init__(self, depth: int, discipline: "str | QueueDiscipline" = "block") -> None:
        if depth < 1:
            raise ValueError(f"channel depth must be >= 1, got {depth}")
        self._items: deque = deque()
        self._depth = int(depth)
        self._getter: "asyncio.Future | None" = None
        self._putter: "asyncio.Future | None" = None
        self.discipline = make_discipline(discipline)

    def qsize(self) -> int:
        return len(self._items)

    def full(self) -> bool:
        return len(self._items) >= self._depth

    def _wake(self, waiter: "asyncio.Future | None") -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def offer(self, item) -> "tuple[bool, object | None]":
        """Admit ``item`` under the channel's discipline.

        Returns ``(admitted, displaced)`` — see :class:`QueueDiscipline`.
        Never blocks; under ``block`` a refusal means the caller should
        fall back to an awaited :meth:`put`.
        """
        admitted, displaced = self.discipline.admit(self._items, self._depth, item)
        if admitted and self._getter is not None:
            self._wake(self._getter)
            self._getter = None
        return admitted, displaced

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


class PriorityChannel:
    """N bounded lanes drained by deficit round robin.

    The multi-queue ingress of a switch port: each lane is its own
    fixed-depth FIFO with its own :class:`QueueDiscipline`, and the
    single consumer drains lanes by **deficit round robin** — each lane
    earns ``weight`` credits per scheduler round (the DRR quantum, with
    every packet costing one credit), so over any backlogged interval
    lane *i* receives ``weight_i / sum(weights)`` of the drain
    capacity.  A lane with weight 0 is a *scavenger*: it is served only
    when every weighted lane is empty.

    Example — a 4:1 high/low split in front of an engine::

        ch = PriorityChannel(depth=512, weights=(4, 1),
                             discipline="tail-drop")
        ch.offer(urgent, lane=0)
        ch.offer(bulk, lane=1)
        item = await ch.get()        # DRR order across backlogged lanes
        ch.close()                   # get() yields SENTINEL once drained

    Unlike a FIFO there is no single "end of queue", so end-of-stream is
    signalled with :meth:`close`: ``get`` keeps returning queued items
    in DRR order and hands out the :data:`SENTINEL` only once every
    lane is empty.
    """

    def __init__(
        self,
        depth: int,
        weights,
        discipline: "str | QueueDiscipline" = "block",
    ) -> None:
        weights = tuple(int(w) for w in weights)
        if not weights:
            raise HomunculusError("PriorityChannel needs at least one lane")
        if any(w < 0 for w in weights):
            raise HomunculusError(f"lane weights must be >= 0, got {weights}")
        if not any(w > 0 for w in weights):
            raise HomunculusError("at least one lane weight must be positive")
        if depth < 1:
            raise HomunculusError(f"lane depth must be >= 1, got {depth}")
        self.weights = weights
        self.depth = int(depth)
        self.discipline = make_discipline(discipline)
        self._lanes = [deque() for _ in weights]
        self._size = 0
        self._closed = False
        self._getter: "asyncio.Future | None" = None
        self._putters: dict = {}
        # DRR state over the weighted lanes (scavengers sit outside the
        # rotation and are polled round-robin when the ring is empty).
        self._ring = [i for i, w in enumerate(weights) if w > 0]
        self._cursor = 0
        self._credit = weights[self._ring[0]]
        self._scavengers = [i for i, w in enumerate(weights) if w == 0]
        self._scavenger_cursor = 0

    @property
    def n_lanes(self) -> int:
        return len(self.weights)

    def qsize(self) -> int:
        return self._size

    def lane_sizes(self) -> tuple:
        """Current depth of every lane (telemetry)."""
        return tuple(len(lane) for lane in self._lanes)

    def full(self, lane: int = 0) -> bool:
        return len(self._lanes[lane]) >= self.depth

    def _wake_getter(self) -> None:
        if self._getter is not None:
            if not self._getter.done():
                self._getter.set_result(None)
            self._getter = None

    def _check_lane(self, lane: int) -> int:
        lane = int(lane)
        if not 0 <= lane < len(self._lanes):
            raise HomunculusError(
                f"lane {lane} out of range for {len(self._lanes)} lanes"
            )
        return lane

    def offer(self, item, lane: int = 0) -> "tuple[bool, object | None]":
        """Admit ``item`` to ``lane`` under the channel's discipline."""
        lane = self._check_lane(lane)
        admitted, displaced = self.discipline.admit(
            self._lanes[lane], self.depth, item
        )
        if admitted:
            if displaced is None:
                self._size += 1
            self._wake_getter()
        return admitted, displaced

    def put_nowait(self, item, lane: int = 0) -> None:
        lane = self._check_lane(lane)
        if len(self._lanes[lane]) >= self.depth:
            raise asyncio.QueueFull
        self._lanes[lane].append(item)
        self._size += 1
        self._wake_getter()

    async def put(self, item, lane: int = 0) -> None:
        lane = self._check_lane(lane)
        while len(self._lanes[lane]) >= self.depth:
            waiter = asyncio.get_running_loop().create_future()
            self._putters[lane] = waiter
            try:
                await waiter
            finally:
                if self._putters.get(lane) is waiter:
                    del self._putters[lane]
        self.put_nowait(item, lane)

    def _wake_putter(self, lane: int) -> None:
        waiter = self._putters.get(lane)
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _pop(self, lane: int):
        item = self._lanes[lane].popleft()
        self._size -= 1
        self._wake_putter(lane)
        return item

    def get_nowait(self):
        """Pop the next item in DRR order (QueueEmpty when drained).

        Once :meth:`close` has been called and every lane is empty, the
        :data:`SENTINEL` is returned instead.
        """
        if self._size == 0:
            if self._closed:
                return SENTINEL
            raise asyncio.QueueEmpty
        ring = self._ring
        # One DRR scan: serve the current lane while it has credit and
        # items; advance (recharging the entered lane) otherwise.  Empty
        # lanes are skipped without consuming credit — work conservation.
        for _ in range(2 * len(ring)):
            lane = ring[self._cursor]
            if self._lanes[lane] and self._credit > 0:
                self._credit -= 1
                return self._pop(lane)
            self._cursor = (self._cursor + 1) % len(ring)
            self._credit = self.weights[ring[self._cursor]]
        # Weighted lanes all empty: poll scavenger lanes round-robin.
        for _ in range(len(self._scavengers)):
            lane = self._scavengers[self._scavenger_cursor]
            self._scavenger_cursor = (
                self._scavenger_cursor + 1
            ) % len(self._scavengers)
            if self._lanes[lane]:
                return self._pop(lane)
        raise asyncio.QueueEmpty  # unreachable: _size > 0 implies a hit

    async def get(self):
        while self._size == 0 and not self._closed:
            waiter = asyncio.get_running_loop().create_future()
            self._getter = waiter
            try:
                await waiter
            finally:
                if self._getter is waiter:
                    self._getter = None
        return self.get_nowait()

    def close(self) -> None:
        """Mark end-of-stream; ``get`` returns SENTINEL once drained."""
        self._closed = True
        self._wake_getter()

    async def aclose(self) -> None:
        """Async spelling of :meth:`close` (BoundedChannel parity)."""
        self.close()
