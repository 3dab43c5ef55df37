"""Multi-pipeline routing: several compiled pipelines, one ingest stream.

Real data planes run more than one model at once — the paper's §5
applications (anomaly detection, traffic classification, botnet
detection) can share a switch, each parsing its own features from the
same packets.  :class:`PipelineRouter` mirrors that: a single source
stream fans out to any number of :class:`AsyncStreamEngine` routes,
each with its own extractor, batching, queueing, and statistics.

Fan-out is lossless at the router: every route gets its own bounded
feed queue and the router blocks on the slowest one, so backpressure
propagates to the shared source (drops, if configured, happen inside
each engine's ingress queue where they are counted per route).

Two operability features ride on the router:

* **per-route weights** — routes share one CPU the way queues share a
  switch port; ``Route.weight`` sets each route's extraction quantum
  (packets per event-loop round), a deficit-round-robin split of the
  host's extraction capacity, so under overload a weight-8 route keeps
  ~8x the drain rate — and a correspondingly lower queueing delay —
  of a weight-1 route,
* **rolling upgrades** — :meth:`rolling_swap` drains and hot-swaps one
  route at a time, the switch-agent table-rewrite story: traffic never
  stops, no packet is dropped, and at most one route is mid-upgrade at
  any moment.

A router can also run in **dispatch** mode: instead of fanning every
packet to every accepting route, a ``dispatch`` callable maps each
packet to exactly one route name — the topology-aware mode
:mod:`repro.fabric.routing` uses to steer packets by ingress tier
(same-leaf traffic to the leaf route, cross-leaf to the spine route).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import HomunculusError
from repro.serving.channel import SENTINEL, BoundedChannel
from repro.serving.clock import replay
from repro.serving.engine import AsyncStreamEngine, _aiter

#: Packets a weight-1 route's extract stage may process per event-loop
#: round; a route's quantum is ``weight * ROUTE_QUANTUM``.
ROUTE_QUANTUM = 64


@dataclass
class Route:
    """One pipeline behind the router.

    Example::

        Route("bd", engine, weight=4)                    # high priority
        Route("tc", engine2, accept=lambda p: p.protocol == PROTO_TCP)

    Attributes
    ----------
    name:
        route key; selects this route's label out of a per-packet label
        dict and keys the result/stats maps.
    engine:
        the :class:`AsyncStreamEngine` serving this route.
    accept:
        optional predicate ``(packet) -> bool``; packets it rejects skip
        this route entirely (an ingress match filter).
    weight:
        relative share of the host's extraction capacity (>= 1).  The
        router turns weights into per-engine extraction quanta; under
        overload, queueing delay scales inversely with weight.
    """

    name: str
    engine: AsyncStreamEngine
    accept: "Callable | None" = None
    weight: int = 1


class PipelineRouter:
    """Fan one packet stream out to several serving engines.

    Example::

        router = PipelineRouter([Route("ad", ad_engine),
                                 Route("bd", bd_engine, weight=4)])
        results = router.process(packets, labels)     # dict per route
        router.stats["bd"].summary()
        await router.rolling_swap({"bd": new_pipeline})
    """

    def __init__(
        self,
        routes: Iterable[Route],
        dispatch: "Callable | None" = None,
    ) -> None:
        """``dispatch``, when given, switches the router from fan-out to
        single-path mode: a callable ``(packet) -> route name`` that
        steers each packet to exactly one route.  Packets dispatched to
        a name no route carries are skipped (counted nowhere — the
        fabric analogue of traffic this switch does not classify).
        Per-route ``accept`` predicates still apply after dispatch."""
        self.dispatch = dispatch
        self.routes = list(routes)
        if not self.routes:
            raise HomunculusError("router needs at least one route")
        names = [route.name for route in self.routes]
        if len(set(names)) != len(names):
            raise HomunculusError(f"duplicate route names: {names}")
        if any(route.weight < 1 for route in self.routes):
            raise HomunculusError("route weights must be >= 1")
        if any(route.weight != 1 for route in self.routes):
            # Weighted service: translate weights into extraction quanta
            # (engines with an explicit quantum keep their own setting).
            for route in self.routes:
                if route.engine.extract_quantum == 0:
                    route.engine.extract_quantum = route.weight * ROUTE_QUANTUM

    @property
    def stats(self) -> dict:
        """Per-route :class:`ServingStats`, keyed by route name."""
        return {route.name: route.engine.stats for route in self.routes}

    async def rolling_swap(self, pipelines: dict) -> dict:
        """Hitlessly upgrade routes one at a time; returns old pipelines.

        ``pipelines`` maps route names to replacement pipelines.  For
        each named route — in router order — the replacement is
        compare-and-swapped in on a micro-batch boundary, then the
        route's remaining old-pipeline batches are drained
        (:meth:`AsyncStreamEngine.drain_inflight`), so when a route's
        upgrade completes its old pipeline is fully retired — safe to
        decommission — before the next route starts.  Traffic keeps
        flowing on every route throughout; nothing is dropped, and at
        most one route is mid-upgrade at any time (the switch-agent
        rolling table rewrite).

        Safe to call while :meth:`run` is live *or* between runs.
        """
        known = {route.name: route for route in self.routes}
        unknown = sorted(set(pipelines) - set(known))
        if unknown:
            raise HomunculusError(f"rolling_swap: unknown routes {unknown}")
        old = {}
        for route in self.routes:
            if route.name not in pipelines:
                continue
            # Swap first: every batch dispatched from here on runs the
            # new pipeline, so the in-flight snapshot we then drain is
            # exactly the set of final old-pipeline batches.
            old[route.name] = route.engine.swap_pipeline(pipelines[route.name])
            await route.engine.drain_inflight()
        return old

    async def run(self, source) -> dict:
        """Drive every route from one stream; return per-route predictions.

        ``source`` yields ``Packet`` or ``(Packet, labels)`` where
        ``labels`` is either a scalar applied to every route or a dict
        keyed by route name (missing routes run unlabeled).
        """
        feeds = {
            route.name: BoundedChannel(route.engine.queue_depth)
            for route in self.routes
        }

        async def feed_route(name: str):
            queue = feeds[name]
            while True:
                item = await queue.get()
                if item is SENTINEL:
                    return
                yield item

        by_name = {route.name: route for route in self.routes}

        async def fan_out() -> None:
            async for item in _aiter(source):
                if isinstance(item, tuple):
                    packet, labels = item
                else:
                    packet, labels = item, None
                if self.dispatch is not None:
                    target = by_name.get(self.dispatch(packet))
                    targets = [target] if target is not None else []
                else:
                    targets = self.routes
                for route in targets:
                    if route.accept is not None and not route.accept(packet):
                        continue
                    if isinstance(labels, dict):
                        label = labels.get(route.name)
                    else:
                        label = labels
                    await feeds[route.name].put((packet, label))
            for route in self.routes:
                await feeds[route.name].put(SENTINEL)

        tasks = [asyncio.create_task(fan_out(), name="router-fanout")]
        runs = {}
        for route in self.routes:
            runs[route.name] = asyncio.create_task(
                route.engine.run(feed_route(route.name)),
                name=f"router-{route.name}",
            )
            tasks.append(runs[route.name])
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return {name: task.result() for name, task in runs.items()}

    def process(
        self,
        packets: Iterable,
        labels: "Iterable | None" = None,
        speed: float = 0.0,
    ) -> dict:
        """Synchronous convenience wrapper around :meth:`run`."""
        labels = list(labels) if labels is not None else None
        return asyncio.run(self.run(replay(packets, labels, speed=speed)))
