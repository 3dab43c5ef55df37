"""The fleet controller: rolling deploys with telemetry-gated rollback.

:class:`FleetController` supervises N named serving workers — each a
live :class:`~repro.serving.engine.AsyncStreamEngine` — and turns the
engines' per-worker primitives into fleet-wide operations:

* **deploy** — a rolling upgrade, one worker at a time, each gated on
  its own telemetry: snapshot the worker's counters and latency ring
  before the swap, hitlessly swap, drain the old pipeline, wait for the
  new one to serve a minimum number of micro-batches, then compare the
  post-swap window against the pre-swap window with a
  :class:`~repro.control.telemetry.RegressionGate`.  A regression (or a
  worker death mid-rollout) automatically rolls *that worker* back and
  aborts the rollout — workers not yet reached keep the old pipeline,
  workers already upgraded and judged healthy keep the new one,
* **rollback** — instant fleet-wide revert to each engine's retained
  previous pipeline (:meth:`AsyncStreamEngine.rollback_pipeline`),
* **traffic_split** — live per-worker weight changes (each engine's
  DRR extraction quantum),
* **fleet** — one JSON-friendly snapshot of every worker's counters,
  summary scalars, and ring-buffer time series.

Exactly one mutation may run at a time: a deploy/rollback/split that
races an in-progress rollout raises :class:`DeployConflict` (HTTP 409
at the server) rather than interleaving two table rewrites.
"""

from __future__ import annotations

import asyncio

from repro.control.telemetry import RegressionGate, window_metrics
from repro.errors import ControlError, DeployConflict
from repro.obs.registry import get_registry
from repro.obs.trace import get_tracer
from repro.serving.router import ROUTE_QUANTUM

_ZERO = {"packets": 0, "enqueued": 0, "dropped": 0,
         "batches": 0, "batch_rows": 0, "swaps": 0}


def _series_json(ring, limit: int = 256) -> list:
    """Last ``limit`` ring samples as ``[[t, value], ...]`` (JSON-safe)."""
    times, values = ring.samples()
    times, values = times[-limit:], values[-limit:]
    return [[float(t), float(v)] for t, v in zip(times, values)]


class FleetWorker:
    """One named serving engine under the controller's supervision.

    ``task`` (when attached) is the asyncio task driving
    ``engine.run(...)``; the controller uses it for liveness — a worker
    whose run task has finished (cancelled, crashed, or out of traffic)
    cannot absorb a gated upgrade, so a rollout stops at it.

    Example::

        worker = FleetWorker("w0", engine, version="v1")
        worker.attach(asyncio.create_task(engine.run(source)))
    """

    def __init__(self, name: str, engine, version: str = "v0",
                 weight: int = 1) -> None:
        if not name:
            raise ControlError("worker needs a non-empty name")
        self.name = str(name)
        self.engine = engine
        self.version = str(version)
        self.previous_version: "str | None" = None
        self.weight = int(weight)
        self.task: "asyncio.Task | None" = None

    def attach(self, task: asyncio.Task) -> None:
        """Track the asyncio task running this worker's engine."""
        self.task = task

    def alive(self) -> bool:
        """True while the worker's run task (if attached) is still going."""
        return self.task is None or not self.task.done()

    def set_version(self, version: str) -> None:
        self.previous_version, self.version = self.version, str(version)

    def rollback_version(self) -> None:
        self.previous_version, self.version = self.version, self.previous_version

    def snapshot(self) -> dict:
        """JSON-friendly view: identity, liveness, counters, ring series."""
        stats = self.engine.stats
        return {
            "name": self.name,
            "version": self.version,
            "previous_version": self.previous_version,
            "weight": self.weight,
            "alive": self.alive(),
            "pipeline_generation": self.engine.pipeline_generation,
            "counters": stats.counters(),
            "summary": stats.summary(),
            "series": {
                "latency_s": _series_json(stats.latency_series),
                "queues": {stage: _series_json(ring)
                           for stage, ring in stats.queues.items()},
            },
        }


def start_workers(workers: list, source) -> None:
    """Run each worker's engine on its own traffic source.

    ``source(worker)`` returns the async ``(packet, label)`` iterator
    the worker serves.  Each engine runs as the task
    ``fleet-<worker>``, attached to its worker for liveness; stop them
    with :func:`stop_workers`.
    """
    for worker in workers:
        worker.attach(asyncio.create_task(
            worker.engine.run(source(worker)), name=f"fleet-{worker.name}"))


async def stop_workers(workers: list, stop: asyncio.Event) -> list:
    """Set ``stop`` and wait for every attached worker task to finish.

    Returns ``[(worker, error), ...]`` for each worker whose run task
    raised — the dead workers, for the caller to report or fail on.
    """
    stop.set()
    running = [worker for worker in workers if worker.task is not None]
    results = await asyncio.gather(
        *(worker.task for worker in running), return_exceptions=True)
    return [(worker, result) for worker, result in zip(running, results)
            if isinstance(result, Exception)]


class FleetController:
    """Supervise a fleet of serving workers; deploy, gate, roll back.

    Example::

        controller = FleetController(workers, gate=RegressionGate())
        controller.register_pipeline("v2", new_pipeline)
        report = await controller.deploy("v2")
        report["ok"], report["rolled_back"]
    """

    def __init__(self, workers, gate: "RegressionGate | None" = None) -> None:
        workers = list(workers)
        if not workers:
            raise ControlError("controller needs at least one worker")
        names = [worker.name for worker in workers]
        if len(set(names)) != len(names):
            raise ControlError(f"duplicate worker names: {names}")
        self.workers = {worker.name: worker for worker in workers}
        self.gate = gate if gate is not None else RegressionGate()
        self.pipelines: dict = {}
        self.events: list = []
        self._busy: "str | None" = None
        # Seed the registry with whatever each worker is serving now, so
        # a rollback-by-version is possible without a prior deploy.
        for worker in workers:
            self.pipelines.setdefault(worker.version, worker.engine.pipeline)

    # -- registry / guard ------------------------------------------------
    def register_pipeline(self, version: str, pipeline) -> None:
        """Name a candidate pipeline so ``deploy`` can reference it."""
        if not hasattr(pipeline, "predict"):
            raise ControlError("pipeline must expose predict()")
        self.pipelines[str(version)] = pipeline

    def _acquire(self, op: str) -> None:
        if self._busy is not None:
            raise DeployConflict(
                f"{op} rejected: {self._busy} already in progress"
            )
        self._busy = op
        # Counted at acquire time (not completion) so a /metrics scrape
        # *during* a rollout already shows the mutation in flight.
        get_registry().counter(
            "repro_control_ops_total",
            help="control-plane mutations by operation",
            labels=("op",),
        ).labels(op=op.split(":", 1)[0]).inc()

    def _log(self, event: str, **fields) -> None:
        self.events.append({"event": event, **fields})

    def _named_workers(self, names) -> list:
        if names is None:
            return list(self.workers.values())
        unknown = sorted(set(names) - set(self.workers))
        if unknown:
            raise ControlError(f"unknown workers: {unknown}")
        return [self.workers[name] for name in names]

    # -- observation -----------------------------------------------------
    def fleet(self) -> dict:
        """Fleet-level snapshot: totals plus every worker's telemetry."""
        snapshots = [worker.snapshot() for worker in self.workers.values()]
        totals = dict(_ZERO)
        for snap in snapshots:
            for key in totals:
                totals[key] += snap["counters"][key]
        return {
            "workers": snapshots,
            "totals": totals,
            "busy": self._busy,
            "gate": self.gate.to_dict(),
            "versions": sorted(self.pipelines),
            "events": self.events[-64:],
        }

    # -- mutations -------------------------------------------------------
    async def deploy(self, version: str, gate: "RegressionGate | None" = None,
                     workers: "list | None" = None) -> dict:
        """Fleet-wide rolling swap to ``version``, gated per worker.

        Worker by worker (in registration order): check liveness,
        snapshot telemetry, hitless-swap, drain the displaced pipeline,
        let the new one settle (``gate.min_batches`` fresh micro-batches,
        bounded by ``gate.settle_s``), then compare post- vs pre-swap
        windows.  On a regression — or a worker dying, or traffic drying
        up before a verdict is possible — that worker is swapped back
        and the rollout **aborts**: untouched workers keep the old
        pipeline, already-upgraded workers keep the new one (they passed
        their own gates).  Returns a report; raises
        :class:`DeployConflict` if another mutation is in progress.
        """
        version = str(version)
        if version not in self.pipelines:
            raise ControlError(
                f"deploy: unknown version {version!r} "
                f"(registered: {sorted(self.pipelines)})"
            )
        pipeline = self.pipelines[version]
        gate = gate if gate is not None else self.gate
        targets = self._named_workers(workers)
        self._acquire(f"deploy:{version}")
        report = {"version": version, "ok": True, "aborted_at": None,
                  "reason": None, "upgraded": [], "rolled_back": [],
                  "skipped": [], "workers": {}}
        tracer = get_tracer()
        try:
            with tracer.span("control.deploy", version=version,
                             targets=len(targets)):
                for worker in targets:
                    if worker.version == version:
                        report["skipped"].append(worker.name)
                        report["workers"][worker.name] = {"action": "skipped"}
                        continue
                    if not worker.alive():
                        self._abort(report, worker, "worker dead before swap")
                        break
                    outcome = await self._deploy_one(worker, version,
                                                     pipeline, gate, tracer)
                    report["workers"][worker.name] = outcome
                    if outcome["action"] == "upgraded":
                        report["upgraded"].append(worker.name)
                        continue
                    report["rolled_back"].append(worker.name)
                    report["ok"] = False
                    report["aborted_at"] = worker.name
                    report["reason"] = outcome["reason"]
                    break
                for worker in targets:
                    report["workers"].setdefault(
                        worker.name, {"action": "untouched"})
            self._log("deploy", version=version, ok=report["ok"],
                      aborted_at=report["aborted_at"],
                      reason=report["reason"])
            get_registry().counter(
                "repro_control_deploys_total",
                help="finished rolling deploys by outcome",
                labels=("outcome",),
            ).labels(outcome="ok" if report["ok"] else "aborted").inc()
            return report
        finally:
            self._busy = None

    def _abort(self, report: dict, worker, reason: str) -> None:
        report["ok"] = False
        report["aborted_at"] = worker.name
        report["reason"] = reason
        report["workers"][worker.name] = {"action": "aborted", "reason": reason}

    async def _deploy_one(self, worker, version: str, pipeline, gate,
                          tracer=None) -> dict:
        """Upgrade one worker under the gate; roll it back on regression."""
        tracer = tracer if tracer is not None else get_tracer()
        engine = worker.engine
        stats = engine.stats
        swap_t = engine.clock.now()
        pre_counters = stats.counters()
        # Pre window = the worker's whole history up to the swap: ring
        # samples at or before swap_t, counter deltas from zero.
        pre = window_metrics(stats.latency_series.window(until=swap_t),
                             _ZERO, pre_counters)
        with tracer.span("control.swap", worker=worker.name, version=version):
            engine.swap_pipeline(pipeline)
            worker.set_version(version)
            await engine.drain_inflight()

        # Settle on *recorded* post-swap batches — the latency ring gains
        # one sample per batch at record time, after inference completes,
        # so a slow new pipeline cannot fake a settled window the way the
        # flush-time ``batches`` counter could.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + gate.settle_s
        died = False
        with tracer.span("control.settle", worker=worker.name,
                         version=version):
            while True:
                fresh = int(stats.latency_series.window(since=swap_t).size)
                if fresh >= gate.min_batches:
                    break
                if not worker.alive():
                    died = True
                    break
                if loop.time() >= deadline:
                    break
                await asyncio.sleep(gate.poll_s)

        post_counters = stats.counters()
        if died or fresh < gate.min_batches:
            reason = ("worker died mid-swap" if died else
                      f"insufficient post-swap traffic "
                      f"({fresh}/{gate.min_batches} batches in "
                      f"{gate.settle_s:g}s)")
            with tracer.span("control.rollback", worker=worker.name):
                engine.rollback_pipeline()
                worker.rollback_version()
                await engine.drain_inflight()
            return {"action": "rolled-back", "reason": reason, "verdict": None}

        post = window_metrics(stats.latency_series.window(since=swap_t),
                              pre_counters, post_counters)
        verdict = gate.compare(pre, post)
        if verdict["regressed"]:
            with tracer.span("control.rollback", worker=worker.name):
                engine.rollback_pipeline()
                worker.rollback_version()
                await engine.drain_inflight()
            return {"action": "rolled-back",
                    "reason": "; ".join(verdict["reasons"]),
                    "verdict": verdict}
        return {"action": "upgraded", "reason": None, "verdict": verdict}

    async def rollback(self, workers: "list | None" = None) -> dict:
        """Instantly revert workers to their retained previous pipeline.

        No gating — rollback is the escape hatch, so it is a plain
        hitless swap-back plus drain on each worker that has a previous
        pipeline retained (workers that never swapped are reported as
        skipped).  Conflicts with an in-progress deploy (409).
        """
        targets = self._named_workers(workers)
        self._acquire("rollback")
        tracer = get_tracer()
        try:
            reverted, skipped = [], []
            for worker in targets:
                if worker.engine.previous_pipeline is None:
                    skipped.append(worker.name)
                    continue
                with tracer.span("control.rollback", worker=worker.name):
                    worker.engine.rollback_pipeline()
                    worker.rollback_version()
                    await worker.engine.drain_inflight()
                reverted.append(worker.name)
            self._log("rollback", reverted=reverted, skipped=skipped)
            return {"ok": True, "reverted": reverted, "skipped": skipped}
        finally:
            self._busy = None

    def traffic_split(self, weights: dict) -> dict:
        """Adjust per-worker traffic weights live; returns the new map.

        Each named worker's engine gets its ``extract_quantum``
        retranslated (the DRR extraction split).  Conflicts with an
        in-progress deploy (409).
        """
        unknown = sorted(set(weights) - set(self.workers))
        if unknown:
            raise ControlError(f"traffic_split: unknown workers {unknown}")
        for name, weight in weights.items():
            if int(weight) < 1:
                raise ControlError(
                    f"traffic_split: weight for {name!r} must be >= 1, "
                    f"got {weight}"
                )
        self._acquire("traffic-split")
        try:
            for name, weight in weights.items():
                worker = self.workers[name]
                worker.weight = int(weight)
                worker.engine.extract_quantum = worker.weight * ROUTE_QUANTUM
            new = {name: worker.weight for name, worker in self.workers.items()}
            self._log("traffic-split", weights=new)
            return new
        finally:
            self._busy = None
