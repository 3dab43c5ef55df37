"""Deadline-based micro-batching.

Batching amortizes per-inference overhead, but a fixed batch size alone
has a pathological tail: under light load the last packets of a lull
wait forever for the batch to fill.  The :class:`MicroBatcher` flushes
on **whichever comes first** of

* ``batch_size`` items accumulated (throughput bound), or
* ``max_latency`` seconds since the oldest buffered item reached the
  batcher (latency bound),

so per-packet queueing delay is capped even when the stream goes quiet
— the standard deadline micro-batching contract of serving runtimes.
With ``max_latency=None`` batches form purely by size, which keeps
batch boundaries — and therefore downstream numerics — bit-identical to
the synchronous :class:`~repro.runtime.stream.StreamProcessor`.

Size flushes always emit exactly ``batch_size`` items; only deadline
flushes and the end-of-stream drain emit partial batches.
"""

from __future__ import annotations

import asyncio
from collections import deque

import numpy as np

from repro.errors import HomunculusError
from repro.serving.channel import SENTINEL

__all__ = ["MicroBatcher", "RowBlock", "SENTINEL"]


class RowBlock:
    """A block of extracted rows with their per-row metadata.

    The unit the engine's stages pass between them: the extract stage
    turns each drain of the ingress queue into one block, the batcher
    re-slices and joins blocks into batches, inference reads
    :attr:`rows` as its input matrix, and the record stage reads the
    rest.  All four fields are parallel, row ``i`` of each describing
    the same packet:

    * ``rows`` — ``(n, width)`` float feature matrix,
    * ``labels`` — list of ground-truth labels (``None`` = unlabeled),
    * ``stamps`` — ``(n,)`` float arrival stamps at the ingress queue,
    * ``lanes`` — ``(n,)`` int priority lane of each packet.

    Slicing (``block[a:b]``) returns a block of views; :meth:`join`
    concatenates blocks in order.
    """

    __slots__ = ("rows", "labels", "stamps", "lanes")

    def __init__(self, rows: np.ndarray, labels: list, stamps: np.ndarray,
                 lanes: np.ndarray) -> None:
        self.rows = rows
        self.labels = labels
        self.stamps = stamps
        self.lanes = lanes

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: slice) -> "RowBlock":
        return RowBlock(self.rows[index], self.labels[index],
                        self.stamps[index], self.lanes[index])

    @classmethod
    def join(cls, blocks: list) -> "RowBlock":
        """One block holding ``blocks``' rows in order."""
        return cls(
            np.concatenate([block.rows for block in blocks]),
            [label for block in blocks for label in block.labels],
            np.concatenate([block.stamps for block in blocks]),
            np.concatenate([block.lanes for block in blocks]),
        )


def _join(pieces: list):
    """Concatenate buffered chunks: row blocks, or plain item lists."""
    if len(pieces) == 1:
        return pieces[0]
    if isinstance(pieces[0], RowBlock):
        return RowBlock.join(pieces)
    return [item for piece in pieces for item in piece]


class MicroBatcher:
    """Group item *chunks* from an input queue into bounded batches.

    The upstream stage enqueues chunks of items — :class:`RowBlock`
    objects in the engine, or plain lists (chunking keeps queue traffic
    per *burst* rather than per packet, the descriptor-ring idiom); the
    batcher re-slices and joins them into batches of the same kind for
    the inference stage.

    Example::

        batcher = MicroBatcher(batch_size=256, max_latency=2e-3)
        await batcher.run(q_rows, q_batches)   # until SENTINEL arrives

    Parameters
    ----------
    batch_size:
        flush as soon as this many items are buffered.
    max_latency:
        optional deadline in **seconds**: flush a partial batch once the
        oldest buffered item has waited this long in the batcher.
        Deadlines run on the event loop's wall clock — they bound real
        host queueing delay and are deliberately independent of any
        virtual replay clock.
    on_flush:
        optional callback ``(n_rows, deadline_flush: bool)`` for
        telemetry (wired to :meth:`ServingStats.observe_batch`).
    """

    def __init__(
        self,
        batch_size: int = 256,
        max_latency: "float | None" = None,
        on_flush=None,
    ) -> None:
        if batch_size < 1:
            raise HomunculusError("batch_size must be >= 1")
        if max_latency is not None and max_latency <= 0:
            raise HomunculusError("max_latency must be positive (seconds)")
        self.batch_size = int(batch_size)
        self.max_latency = max_latency
        self.on_flush = on_flush

    async def run(self, q_in: asyncio.Queue, q_out: asyncio.Queue) -> None:
        """Pump ``q_in`` into ``q_out`` until a :data:`SENTINEL` arrives.

        ``q_in`` items are chunks (or the sentinel).  The sentinel
        flushes any partial batch and is then forwarded so downstream
        stages drain in order.
        """
        loop = asyncio.get_running_loop()
        pieces: deque = deque()  # buffered chunks, oldest first
        entered: deque = deque()  # batcher arrival of each buffered chunk
        buffered = 0

        async def emit(count: int, deadline_flush: bool) -> None:
            nonlocal buffered
            taken = []
            need = count
            while need:
                piece = pieces[0]
                if len(piece) <= need:
                    taken.append(pieces.popleft())
                    entered.popleft()
                    need -= len(piece)
                else:  # the remainder keeps the chunk's arrival time
                    taken.append(piece[:need])
                    pieces[0] = piece[need:]
                    need = 0
            buffered -= count
            if self.on_flush is not None:
                self.on_flush(count, deadline_flush)
            await q_out.put(_join(taken))

        while True:
            if not buffered or self.max_latency is None:
                chunk = await q_in.get()
            else:
                remaining = entered[0] + self.max_latency - loop.time()
                if remaining <= 0:
                    await emit(buffered, True)
                    continue
                try:
                    chunk = await asyncio.wait_for(q_in.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    await emit(buffered, True)
                    continue
            if chunk is SENTINEL:
                if buffered:
                    await emit(buffered, False)
                await q_out.put(SENTINEL)
                return
            if not len(chunk):
                continue
            pieces.append(chunk)
            entered.append(loop.time())
            buffered += len(chunk)
            while buffered >= self.batch_size:
                await emit(self.batch_size, False)
