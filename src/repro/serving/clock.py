"""Clocks and trace replay for the serving runtime.

Serving behaviour (deadline flushes, latency percentiles, pacing) is all
about *time*, which makes it miserable to test against the wall clock.
Trace replay therefore reads time through a clock object:

* :class:`WallClock` — ``time.monotonic`` plus real ``asyncio.sleep``,
  for live deployments and wall-clock benchmarks,
* :class:`VirtualClock` — a manually advanced timeline whose ``sleep``
  returns immediately after bumping the clock, so replaying an hour of
  capture takes milliseconds and runs bit-identically every time.

:func:`replay` turns a recorded packet list into a paced async stream:
inter-packet gaps from the capture are honoured at a configurable speed
multiplier (``speed=0`` streams as fast as the pipeline can drain).
:func:`replay_chunks` streams a trace unpaced as :class:`PacketChunk`
items, one engine queue operation per chunk instead of per packet.
:func:`loop_replay` loops a trace forever at a fixed packet rate — the
live-fleet traffic source — with timestamps kept monotonic across laps.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from typing import AsyncIterator, Iterable, Sequence

from repro.errors import HomunculusError

#: How often (in items) an unpaced source yields to the event loop.  A
#: coarse anti-starvation backstop only: fine-grained scheduling is the
#: engine's job — its ingest stage yields on queue occupancy, so drop
#: behaviour under tail-drop reflects queue depth and pipeline speed,
#: not the source's yield stride.
YIELD_EVERY = 1024


class WallClock:
    """Real time: monotonic reads, genuine asyncio sleeps.

    Example::

        clock = WallClock()
        t0 = clock.now()
        await clock.sleep(0.01)        # really waits ~10 ms
    """

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(max(0.0, seconds))


class VirtualClock:
    """A deterministic timeline advanced only by ``sleep``/``advance``.

    ``sleep`` yields to the event loop exactly once (so other tasks make
    progress) but never waits in real time — a replayed trace runs as
    fast as the CPU allows while every timestamp arithmetic stays exact.

    Example::

        clock = VirtualClock()
        await clock.sleep(3600.0)      # instant; clock.now() == 3600.0
        engine = AsyncStreamEngine(pipeline, extractor, clock=clock)
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise HomunculusError(f"cannot advance a clock by {seconds}")
        self._now += seconds

    async def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds
        await asyncio.sleep(0)


async def replay(
    packets: Iterable,
    labels: "Sequence | None" = None,
    speed: float = 0.0,
    clock: "WallClock | VirtualClock | None" = None,
) -> AsyncIterator:
    """Replay ``packets`` as an async ``(packet, label)`` stream.

    Parameters
    ----------
    packets:
        anything iterable of :class:`~repro.netsim.packet.Packet` (or any
        object with a ``timestamp`` attribute).
    labels:
        optional per-packet labels, parallel to ``packets``.
    speed:
        pacing multiplier over capture time: ``1.0`` replays in real
        time, ``10.0`` at 10x capture speed, ``0`` (the default) streams
        back-to-back with no pacing at all.
    clock:
        the clock pacing sleeps are charged to (default wall clock).
        With a :class:`VirtualClock` the replay is deterministic and
        instant in real time.
    """
    if speed < 0:
        raise HomunculusError(f"replay speed must be >= 0, got {speed}")
    clock = clock if clock is not None else WallClock()
    label_list = list(labels) if labels is not None else None
    first_ts: "float | None" = None
    start = clock.now()
    for index, packet in enumerate(packets):
        if speed > 0:
            ts = float(packet.timestamp)
            if first_ts is None:
                first_ts = ts
            due = start + (ts - first_ts) / speed
            wait = due - clock.now()
            if wait > 0:
                await clock.sleep(wait)
        label = label_list[index] if label_list is not None else None
        yield packet, label
        if speed == 0 and index % YIELD_EVERY == YIELD_EVERY - 1:
            # Yield to the loop periodically so an unpaced replay cannot
            # starve the downstream stages feeding off our queue puts.
            await asyncio.sleep(0)


class PacketChunk:
    """Consecutive packets with their labels: one source item, many packets.

    A source may yield chunks instead of ``(packet, label)`` pairs.  On
    the lossless single-lane ingress a chunk is one queue entry with one
    arrival stamp; the dropping policies and priority lanes admit its
    packets one by one.  ``labels`` is parallel to ``packets`` (``None`` labels
    every packet ``None``).
    """

    __slots__ = ("packets", "labels")

    def __init__(self, packets: list, labels: "list | None" = None) -> None:
        if labels is None:
            labels = [None] * len(packets)
        elif len(labels) != len(packets):
            raise HomunculusError(
                f"PacketChunk got {len(labels)} labels for "
                f"{len(packets)} packets")
        self.packets = packets
        self.labels = labels


async def replay_chunks(
    packets: Iterable,
    labels: "Sequence | None" = None,
    size: int = 256,
) -> AsyncIterator:
    """Stream ``packets`` unpaced as :class:`PacketChunk` items.

    Each chunk holds up to ``size`` consecutive packets (and their
    ``labels``); like an unpaced :func:`replay`, the stream yields to
    the event loop every :data:`YIELD_EVERY` packets.

    Example::

        predictions = await engine.run(replay_chunks(packets, labels, 256))
    """
    if size < 1:
        raise HomunculusError(f"replay_chunks size must be >= 1, got {size}")
    packets = iter(packets)
    labels = iter(labels) if labels is not None else None
    sent = 0
    while True:
        chunk = list(itertools.islice(packets, size))
        if not chunk:
            return
        n = len(chunk)
        yield PacketChunk(
            chunk, list(itertools.islice(labels, n)) if labels is not None else None)
        sent += n
        if sent % YIELD_EVERY < n:
            await asyncio.sleep(0)


def loop_replay(
    packets: Sequence,
    labels: "Sequence | None",
    rate: float,
    stop: asyncio.Event,
) -> AsyncIterator:
    """Loop ``packets`` as an async ``(packet, label)`` stream until ``stop``.

    Emits ~``rate`` packets/s in chunks of ``max(1, rate // 100)`` with
    one sleep per chunk, so pacing holds without a per-packet timer.
    Each lap shifts timestamps by the trace span (plus one second), so
    stateful extractors see a monotonic stream across laps.  ``labels``
    (parallel to ``packets``) pass through unchanged; ``None`` labels
    every packet ``None``.  The stream ends at the first packet boundary
    after ``stop`` is set.

    Example::

        stop = asyncio.Event()
        task = asyncio.create_task(
            engine.run(loop_replay(packets, labels, 4000.0, stop)))
        ...
        stop.set()
        await task
    """
    if rate <= 0:
        raise HomunculusError(f"loop_replay rate must be > 0, got {rate}")
    packets = list(packets)
    if not packets:
        raise HomunculusError("loop_replay needs a non-empty packet trace")
    labels = list(labels) if labels is not None else [None] * len(packets)
    if len(labels) != len(packets):
        raise HomunculusError(
            f"loop_replay got {len(labels)} labels for {len(packets)} packets")
    return _loop(packets, labels, rate, stop)


async def _loop(packets: list, labels: list, rate: float,
                stop: asyncio.Event) -> AsyncIterator:
    span = packets[-1].timestamp - packets[0].timestamp + 1.0
    chunk = max(1, int(rate // 100))
    pause = chunk / rate
    lap = sent = 0
    while not stop.is_set():
        shift = lap * span
        for packet, label in zip(packets, labels):
            if stop.is_set():
                return
            if shift:
                packet = dataclasses.replace(
                    packet, timestamp=packet.timestamp + shift)
            yield packet, label
            # Counted across laps: a trace shorter than one chunk must
            # still sleep, or the loop would never yield to ``stop``.
            sent += 1
            if sent % chunk == 0:
                await asyncio.sleep(pause)
        lap += 1
