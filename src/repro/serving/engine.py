"""The asyncio serving engine: extract -> batch -> infer -> record.

The synchronous :class:`~repro.runtime.stream.StreamProcessor` alternates
feature extraction and model inference on one thread, so the host idles
while the device serves a batch and the device idles while the host
extracts the next one.  :class:`AsyncStreamEngine` runs the four stages
as concurrent tasks connected by **bounded** queues, the software
analogue of a switch pipeline's fixed-depth stage FIFOs:

* **extract** — feature extraction (stateful, sequential: conversation
  state must see packets in arrival order), one
  :class:`~repro.serving.batching.RowBlock` per drain of the ingress
  queue,
* **micro-batch** — :class:`~repro.serving.batching.MicroBatcher`
  (flush on size or deadline, whichever first),
* **infer** — ``pipeline.predict`` on an executor thread, with up to
  ``infer_workers`` batches in flight (a hardware pipeline overlaps
  batches; results are re-sequenced so output order never changes),
* **record** — in-order statistics, latency stamps, predictions.

Past the ingress queue, packets travel as row blocks: the feature
matrix plus parallel labels, arrival stamps and lanes.

The ingress is one :class:`~repro.serving.channel.ChunkChannel` whose
depth counts packets, whatever the drop policy or lanes:

* ``"block"`` — lossless: a full queue stalls the source (replay waits),
  predictions are bit-identical to the synchronous processor.  Without
  lanes a :class:`~repro.serving.clock.PacketChunk` from the source is
  admitted whole: one queue entry with one arrival stamp,
* ``"tail-drop"`` — a full queue drops the arriving packet and counts
  it, emulating the fixed-depth ingress queue of a switch under load,
* ``"head-drop"`` — a full queue evicts the *oldest* queued packet to
  admit the new one: fresher data wins, the right policy when a stale
  telemetry verdict is worthless by the time it is computed.

With ``priorities`` the channel has one weighted lane per weight:
packets are classified by ``lane_of`` and extraction drains the lanes
in deficit-round-robin order, so high-priority traffic keeps a low
queueing delay while an overload backlogs the bulk lanes.  Under a
dropping policy or lanes, a chunk is admitted packet by packet.

Intermediate queues always block: they are host-internal, and dropping
mid-pipeline would tear batches apart.

The engine's pipeline is **hot-swappable**: :meth:`swap_pipeline`
compare-and-swaps the compiled pipeline between micro-batches with zero
dropped items — the software twin of a switch agent rewriting match
tables under live traffic.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, Iterable

import numpy as np

from repro.errors import HomunculusError
from repro.obs.trace import NULL_TRACER, get_tracer
from repro.runtime.stream import extract_rows
from repro.serving.batching import MicroBatcher, RowBlock
from repro.serving.channel import SENTINEL, BoundedChannel, ChunkChannel
from repro.serving.clock import (
    YIELD_EVERY,
    PacketChunk,
    WallClock,
    replay,
    replay_chunks,
)
from repro.serving.stats import ServingStats


async def _packets(source) -> AsyncIterator:
    """Split the :class:`PacketChunk` items of ``source`` into packets."""
    async for item in source:
        if isinstance(item, PacketChunk):
            for pair in zip(item.packets, item.labels):
                yield pair
        else:
            yield item


async def _aiter(source) -> AsyncIterator:
    """Adapt a plain iterable to the async-iterator stage contract."""
    if hasattr(source, "__aiter__"):
        async for item in source:
            yield item
    else:
        for index, item in enumerate(source):
            yield item
            if index % YIELD_EVERY == YIELD_EVERY - 1:
                await asyncio.sleep(0)


class AsyncStreamEngine:
    """Pipelined async serving over a compiled pipeline.

    Example — lossless serving with deadline micro-batching::

        engine = AsyncStreamEngine(
            pipeline, FlowmarkerTracker(),
            batch_size=256, max_latency=2e-3,
            queue_depth=1024, drop_policy="block", infer_workers=4,
        )
        predictions = engine.process(packets, labels)
        engine.stats.summary()                  # p50/p95/p99, drops, ...
        engine.swap_pipeline(new_pipeline)      # hitless, mid-stream

    Parameters
    ----------
    pipeline:
        anything with ``predict(X) -> labels`` (a compiled pipeline, raw
        simulator, or :class:`~repro.serving.device.TimedPipeline`).
    extractor:
        a :class:`~repro.runtime.stream.PacketFeatureExtractor` or
        :class:`~repro.runtime.stream.FlowmarkerTracker`: anything with
        ``extract(packet) -> row``; an optional
        ``extract_many(packets) -> matrix`` serves a whole drain in one
        call (see :func:`~repro.runtime.stream.extract_rows`).
    batch_size / max_latency:
        micro-batch flush bounds (``max_latency`` in seconds, ``None``
        disables the deadline — pure size batching, sync-identical
        boundaries).  Deadlines are measured on the host's event-loop
        clock: they bound real host queueing delay, so batch boundaries
        under a deadline are wall-time behaviour, not replay-time
        (predictions per row are unaffected; for bit-exact repeated runs
        use ``max_latency=None``).
    queue_depth:
        capacity of every stage queue (the switch FIFO depth; per lane,
        when ``priorities`` is set).  The ingress counts packets, also
        when the source yields :class:`PacketChunk` items.
    drop_policy:
        one of :data:`~repro.serving.channel.DROP_POLICIES`, applied
        when the ingress is full (see module docstring).
    infer_workers:
        executor threads / maximum inference batches in flight.
    priorities:
        optional lane weights, e.g. ``(4, 1)`` — the ingress gets one
        lane per weight, drained by deficit round robin, and ``lane_of``
        classifies packets into lanes.  A weight of 0 marks a scavenger
        lane served only when every weighted lane is empty.
    lane_of:
        ``(packet) -> lane_index`` classifier (default: everything in
        lane 0).  Only meaningful with ``priorities``.
    extract_quantum:
        packets the extract stage may process per event-loop wakeup
        (0 = drain greedily).  The :class:`PipelineRouter` uses this to
        split extraction CPU between routes by weight.
    capture:
        optional :class:`~repro.drift.capture.TrafficCapture`-like sink
        (``observe_batch(rows, labels, predictions, times)``; ``rows``
        is the batch's feature matrix, ``times`` its arrival stamps).
        The record stage feeds it every finished micro-batch, giving the
        adaptation loop a bounded ring of recent labeled traffic to
        recompile against.  ``None`` (the default) keeps the packet
        path untouched.
    """

    def __init__(
        self,
        pipeline,
        extractor,
        batch_size: int = 256,
        max_latency: "float | None" = None,
        queue_depth: int = 1024,
        drop_policy: str = "block",
        infer_workers: int = 2,
        priorities: "tuple | list | None" = None,
        lane_of=None,
        extract_quantum: int = 0,
        capture=None,
    ) -> None:
        if not hasattr(pipeline, "predict"):
            raise HomunculusError("pipeline must expose predict()")
        if not hasattr(extractor, "extract"):
            raise HomunculusError("extractor must expose extract()")
        if queue_depth < 1:
            raise HomunculusError("queue_depth must be >= 1")
        if infer_workers < 1:
            raise HomunculusError("infer_workers must be >= 1")
        if extract_quantum < 0:
            raise HomunculusError("extract_quantum must be >= 0")
        if lane_of is not None and priorities is None:
            raise HomunculusError("lane_of needs priorities (lane weights)")
        self.pipeline = pipeline
        self.extractor = extractor
        self.stats = ServingStats()
        # The flush callback is the stats' method, not the engine's: a
        # bound engine method would make engine -> batcher -> engine a
        # reference cycle, and a finished engine (with its extractor's
        # conversation table) would then wait for the cyclic collector.
        self.batcher = MicroBatcher(
            batch_size=batch_size,
            max_latency=max_latency,
            on_flush=self.stats.observe_batch,
        )
        self.queue_depth = int(queue_depth)
        self.drop_policy = drop_policy
        self.infer_workers = int(infer_workers)
        self.priorities = tuple(int(w) for w in priorities) if priorities else None
        self.lane_of = lane_of
        self.extract_quantum = int(extract_quantum)
        self._make_ingress()  # validates the policy and lane weights
        if capture is not None and not hasattr(capture, "observe_batch"):
            raise HomunculusError("capture must expose observe_batch()")
        self.capture = capture
        self.clock = WallClock()
        self.pipeline_generation = 0
        #: The pipeline the last :meth:`swap_pipeline` replaced — retained
        #: so a controller can :meth:`rollback_pipeline` instantly.
        self.previous_pipeline = None
        self._inflight: set = set()
        # Tracer captured once per run(); the per-*packet* stages
        # (_ingest/_extract) contain no observability calls at all —
        # spans are per inference batch only, so tracing off costs the
        # packet path literally nothing.
        self._tracer = NULL_TRACER

    # -- live model swap -------------------------------------------------
    def swap_pipeline(self, pipeline, expected=None):
        """Hitlessly replace the served pipeline; returns the old one.

        The swap is a compare-and-swap on the engine's pipeline slot:
        batches already dispatched to the device finish on the pipeline
        they started with, every later micro-batch (including items
        already queued — a packet in flight hits the *new* tables, just
        as with a switch-agent table rewrite) is served by ``pipeline``.
        No queue is disturbed, so nothing is dropped.

        ``expected`` makes the CAS explicit: when given and the engine
        is no longer serving that exact object (a concurrent swap won),
        the call fails with :class:`HomunculusError` instead of silently
        clobbering the other upgrade.
        """
        if not hasattr(pipeline, "predict"):
            raise HomunculusError("pipeline must expose predict()")
        current = self.pipeline
        if expected is not None and current is not expected:
            raise HomunculusError(
                "swap_pipeline: engine is no longer serving the expected "
                "pipeline (concurrent swap?)"
            )
        self.pipeline = pipeline
        self.previous_pipeline = current
        self.pipeline_generation += 1
        self.stats.mark_swap(self.clock.now())
        return current

    def rollback_pipeline(self):
        """Hitlessly revert to the pipeline the last swap replaced.

        The control plane's instant-revert primitive: every swap retains
        the pipeline it displaced in :attr:`previous_pipeline`, and a
        rollback is just another hitless swap back to it (so it is
        itself counted, timestamped, and retained — rolling back twice
        re-installs the upgrade).  Raises :class:`HomunculusError` when
        no swap has happened yet.
        """
        if self.previous_pipeline is None:
            raise HomunculusError(
                "rollback_pipeline: no previous pipeline retained "
                "(no swap has happened)"
            )
        return self.swap_pipeline(self.previous_pipeline)

    async def drain_inflight(self) -> None:
        """Wait until every batch dispatched to inference has completed.

        Used by :meth:`PipelineRouter.rolling_swap` *after* its CAS to
        retire the old pipeline: once the swap is installed, only
        batches dispatched before it can still reference the old model,
        and those are exactly the in-flight tasks this call awaits —
        when it returns, the old pipeline is quiescent and safe to
        decommission.  Batches merely *queued* (not yet dispatched) are
        not waited for: they run on whichever pipeline is installed when
        they reach the device, the table-rewrite semantics a hitless
        swap wants.
        """
        tasks = [t for t in self._inflight if not t.done()]
        if tasks:
            await asyncio.wait(tasks)
        else:
            await asyncio.sleep(0)

    # -- stages ----------------------------------------------------------
    def _make_ingress(self) -> ChunkChannel:
        return ChunkChannel(self.queue_depth, self.priorities or (1,),
                            self.drop_policy)

    async def _ingest(self, source, q_in: ChunkChannel) -> None:
        """Admit source items at the ingress, under the drop policy.

        A :class:`PacketChunk` is one queue entry with one arrival stamp
        when the policy is ``block`` without lanes: the ingress depth
        counts packets, so a chunk that does not fit waits (an oversized
        one until the queue is empty).  Otherwise a chunk is split and
        each packet is classified, stamped and offered on its own.

        A whole item goes in by ``put_nowait``, or an awaited ``put``
        when it does not fit.  A split packet goes in by ``offer`` (the
        drop policy's non-blocking admit); a blocking engine falls back
        to an awaited put when the lane is full, and tail-drop retries
        once after a yield so its drop counts reflect genuine pipeline
        overload rather than cooperative-scheduling artifacts of the
        source.  Scheduling fairness is driven by queue *occupancy*, not
        source stride: once the ingress is half full the ingest yields so
        the draining stages get the CPU before anything overflows.

        Every arrival increments ``stats.enqueued`` — admitted or not —
        and ``stats.in_flight`` until it is recorded or dropped, so
        ``enqueued == packets + dropped + in_flight`` holds in every
        snapshot and ``enqueued == packets + dropped`` once a run drains.
        """
        stats = self.stats
        now = self.clock.now
        half = max(1, self.queue_depth // 2)
        lanes = self.priorities is not None
        blocking = self.drop_policy == "block"
        whole = blocking and not lanes
        lane_of = self.lane_of
        arrived = 0
        if not hasattr(source, "__aiter__"):
            source = _aiter(source)
        if not whole:
            source = _packets(source)
        async for item in source:
            if isinstance(item, tuple):
                head, label = item
                n = 1
            elif isinstance(item, PacketChunk):  # only when admitted whole
                n = len(item.packets)
                if n > 1:
                    head, label = item, None
                elif n:
                    head, label = item.packets[0], item.labels[0]
                else:
                    continue
            else:
                head, label, n = item, None, 1
            lane = int(lane_of(head)) if lane_of is not None else 0
            entry = (head, label, now(), lane)
            stats.enqueued += n
            stats.in_flight += n
            if whole:
                try:
                    q_in.put_nowait(entry, n)
                except asyncio.QueueFull:
                    await q_in.put(entry, n)
            else:
                admitted, displaced = q_in.offer(entry, lane)
                if not admitted:
                    if blocking:
                        await q_in.put(entry, 1, lane)
                    else:  # tail-drop: give the drain stages one chance
                        await asyncio.sleep(0)
                        admitted, displaced = q_in.offer(entry, lane)
                        if not admitted:
                            stats.drop("ingress", lane=lane if lanes else None)
                            continue
                if displaced is not None:
                    # head-drop evicted the oldest queued entry.
                    stats.drop("ingress", lane=displaced[3] if lanes else None)
            arrived += n
            if arrived % 32 < n:  # crossed a multiple of 32 packets
                stats.observe_queue("ingress", q_in.qsize(), t=now())
                if lanes:
                    for index, depth in enumerate(q_in.lane_sizes()):
                        stats.observe_queue(f"lane{index}", depth, t=now())
            if q_in.qsize() >= half:
                await asyncio.sleep(0)
        await q_in.aclose()

    def _row_block(self, entries: list, packets: int) -> RowBlock:
        """One :class:`RowBlock` from drained ingress entries.

        An entry is ``(head, label, stamp, lane)``: ``head`` is one
        packet, or a :class:`PacketChunk` of two or more that carries its
        own labels, and every packet of a chunk gets the chunk's stamp.
        Chunks are admitted whole only on a single-lane ingress, so their
        packets are all in lane 0.  ``packets`` counts the packets in
        ``entries``, so it equals ``len(entries)`` exactly when no entry
        is a chunk.
        """
        heads, labels, stamps, lanes = zip(*entries)
        lanes = (np.array(lanes) if self.priorities
                 else np.zeros(packets, dtype=int))
        if packets == len(entries):
            return RowBlock(extract_rows(self.extractor, heads), list(labels),
                            np.array(stamps, dtype=float), lanes)
        flat_packets = []
        flat_labels = []
        counts = []
        for head, label in zip(heads, labels):
            if isinstance(head, PacketChunk):
                flat_packets.extend(head.packets)
                flat_labels.extend(head.labels)
                counts.append(len(head.packets))
            else:
                flat_packets.append(head)
                flat_labels.append(label)
                counts.append(1)
        return RowBlock(extract_rows(self.extractor, flat_packets), flat_labels,
                        np.repeat(stamps, counts), lanes)

    async def _extract(self, q_in: ChunkChannel, q_rows: BoundedChannel) -> None:
        """Stateful feature extraction in queue-service order.

        Drains the ingress greedily and forwards one :class:`RowBlock`
        per drain (the descriptor-ring idiom), built by one
        :func:`extract_rows` call: queue traffic scales with bursts, not
        packets, which keeps the async overhead per packet far below the
        extraction work itself.  With lanes the service order *is* the
        DRR order, so high-priority lanes are extracted first under
        backlog.

        ``extract_quantum`` bounds how many packets one wakeup may
        process before yielding the event loop — the router's
        deficit-round-robin knob for splitting extraction CPU between
        routes by weight.  A wakeup stops at the first entry that
        reaches the quantum.
        """
        quantum = self.extract_quantum
        while True:
            entries, packets = await q_in.get_many(quantum)
            done = entries[-1] is SENTINEL  # end-of-stream is last
            if done:
                entries.pop()
            if entries:
                await q_rows.put(self._row_block(entries, packets))
            if done:
                await q_rows.put(SENTINEL)
                return
            if quantum:
                await asyncio.sleep(0)  # end of this engine's DRR round

    async def _infer(self, q_batches: BoundedChannel, q_done: asyncio.Queue) -> None:
        """Run predict() on executor threads, several batches in flight.

        The pipeline is snapshotted per batch, so a concurrent
        :meth:`swap_pipeline` lands exactly on a micro-batch boundary:
        no batch ever straddles two pipelines.
        """
        loop = asyncio.get_running_loop()
        gate = asyncio.Semaphore(self.infer_workers)
        inflight = self._inflight
        sequence = 0

        tracer = self._tracer

        async def serve(seq: int, batch: RowBlock, predict) -> None:
            try:
                with tracer.span("serving.infer", rows=len(batch),
                                 generation=self.pipeline_generation):
                    predictions = await loop.run_in_executor(
                        self._executor, predict, batch.rows
                    )
                await q_done.put((seq, batch, predictions))
            finally:
                gate.release()

        try:
            while True:
                batch = await q_batches.get()
                if batch is SENTINEL:
                    break
                self.stats.observe_queue(
                    "infer", q_batches.qsize(), t=self.clock.now()
                )
                await gate.acquire()
                task = asyncio.create_task(
                    serve(sequence, batch, self.pipeline.predict)
                )
                sequence += 1
                inflight.add(task)
                task.add_done_callback(inflight.discard)
            if inflight:
                await asyncio.gather(*inflight)
            await q_done.put(SENTINEL)
        finally:
            for task in inflight:
                task.cancel()

    async def _record(self, q_done: asyncio.Queue, out: list) -> None:
        """Re-sequence finished batches; record stats in arrival order."""
        stats = self.stats
        capture = self.capture
        lanes = self.priorities is not None and len(self.priorities) > 1
        pending: dict = {}
        expected = 0
        while True:
            item = await q_done.get()
            if item is SENTINEL:
                return
            seq, batch, predictions = item
            pending[seq] = (batch, predictions)
            while expected in pending:
                batch, predictions = pending.pop(expected)
                now = self.clock.now()
                stats.record_batch(predictions, batch.labels)
                stats.in_flight -= len(batch)
                if capture is not None:
                    capture.observe_batch(batch.rows, batch.labels,
                                          predictions, times=batch.stamps)
                waits = now - batch.stamps
                stats.latency.observe_batch(waits)
                stats.latency_series.observe(waits.max(), t=now)
                if lanes:
                    # Lanes in order of first appearance in the batch.
                    for lane in dict.fromkeys(batch.lanes.tolist()):
                        stats.observe_lane_latency(
                            lane, waits[batch.lanes == lane])
                out.extend(predictions)
                expected += 1

    # -- driver ----------------------------------------------------------
    async def run(self, source) -> list:
        """Drive ``source`` through the pipeline; return predictions.

        ``source`` is any (async) iterable of ``Packet``,
        ``(Packet, label)`` or :class:`~repro.serving.clock.PacketChunk`
        items, mixed freely — typically
        :func:`repro.serving.clock.replay` or
        :func:`~repro.serving.clock.replay_chunks`.  The engine drains cleanly
        when the source ends; cancelling the coroutine cancels every
        stage task and the inference executor without leaking tasks.
        """
        q_in = self._make_ingress()
        q_rows = BoundedChannel(self.queue_depth)
        q_batches = BoundedChannel(
            max(1, self.queue_depth // self.batcher.batch_size)
        )
        # q_done has several producers (in-flight inference tasks), so it
        # stays a general asyncio.Queue; traffic is per batch, not per
        # packet.
        q_done: asyncio.Queue = asyncio.Queue()
        out: list = []
        self._tracer = get_tracer()  # NULL_TRACER unless REPRO_OBS is set
        self.stats.started_at = self.clock.now()
        self._executor = ThreadPoolExecutor(
            max_workers=self.infer_workers,
            thread_name_prefix="serving-infer",
        )
        tasks = [
            asyncio.create_task(self._ingest(source, q_in), name="serving-ingest"),
            asyncio.create_task(self._extract(q_in, q_rows), name="serving-extract"),
            asyncio.create_task(
                self.batcher.run(q_rows, q_batches), name="serving-batch"
            ),
            asyncio.create_task(self._infer(q_batches, q_done), name="serving-infer"),
            asyncio.create_task(self._record(q_done, out), name="serving-record"),
        ]
        try:
            await asyncio.gather(*tasks)
        finally:
            # Cancel until every stage has stopped: before Python 3.12,
            # the batcher's asyncio.wait_for swallows a cancel that lands
            # as its inner get completes, and one cancel would then leave
            # run() waiting forever on a stage fed by a failed one.
            pending = tasks
            while pending:
                for task in pending:
                    task.cancel()
                _, pending = await asyncio.wait(pending, timeout=0.1)
            self._executor.shutdown(wait=True, cancel_futures=True)
            self.stats.finished_at = self.clock.now()
        return out

    def process(
        self,
        packets: Iterable,
        labels: "Iterable | None" = None,
        speed: float = 0.0,
    ) -> list:
        """Synchronous convenience wrapper around :meth:`run`.

        Mirrors :meth:`StreamProcessor.process`: feeds ``packets`` (with
        optional parallel ``labels``) through a :func:`replay` source at
        ``speed`` and returns the in-order predictions.  Unpaced
        (``speed=0``) the packets go in as :class:`PacketChunk` items of
        ``min(batch_size, queue_depth)`` packets, one queue operation
        per chunk on the lossless single-lane ingress.
        """
        labels = list(labels) if labels is not None else None
        if speed:
            source = replay(packets, labels, speed=speed, clock=self.clock)
        else:
            source = replay_chunks(
                packets, labels, min(self.batcher.batch_size, self.queue_depth))
        return asyncio.run(self.run(source))
