"""Deploy a fabric plan onto a serving fleet, tier by tier.

The deploy path closes the loop the planner opened: every (device, app)
entry of a :class:`~repro.fabric.planner.FabricPlan` is deterministically
rebuilt into a servable pipeline (:func:`rebuild_plan_pipelines` — same
seed, same config, bit-identical weights to what the plan scored), one
:class:`~repro.control.FleetWorker` is stood up per placement, and
:func:`deploy_plan` rolls the plan out **per tier, bottom-up** through
the existing :class:`~repro.control.FleetController` regression gate —
leaves first, then spine, then core, the order a real fabric upgrade
walks so a bad build is caught at the smallest blast radius.

The rollout inherits the controller's guarantees: hitless per-worker
swap, drain of the displaced pipeline, gate verdict on fresh
micro-batches, rollback + abort on regression.  On top of those,
:func:`deploy_plan`'s report asserts the two fabric gates CI checks:
**zero drops** (lossless engines, lossless swaps) and **conservation**
(every enqueued feature row was inferred — nothing lost in flight).
"""

from __future__ import annotations

import asyncio

from repro.alchemy.platforms import PlatformSpec
from repro.control import (
    FleetController,
    FleetWorker,
    RegressionGate,
    start_workers,
    stop_workers,
)
from repro.core.evaluator import ModelEvaluator
from repro.distrib.runspec import ModelEntry
from repro.errors import FabricError
from repro.fabric.planner import FabricPlan, FabricSpec
from repro.obs import get_registry, get_tracer

__all__ = [
    "extractor_for",
    "rebuild_plan_pipelines",
    "deploy_plan",
]

#: Gate used when the caller passes none: generous latency bounds (the
#: plan pipeline replaces an identical twin, so only real regressions —
#: drops, death, dried-up traffic — should abort), quick settle.
_DEFAULT_GATE = dict(latency_factor=10.0, latency_floor_s=5e-2,
                     drop_margin=0.5, min_batches=2, settle_s=10.0)


def extractor_for(app: str):
    """The packet-feature extractor matching a registered app's features.

    ``bd`` trains on flow aggregates, so its serving twin is the
    stateful :class:`~repro.runtime.FlowmarkerTracker`; ``tc`` trains on
    per-packet features (:class:`~repro.runtime.PacketFeatureExtractor`).
    ``ad``'s NSL-KDD features are not derivable from packets at all —
    deploying it is a spec error, reported as such.
    """
    from repro.scenario import serving_extractor

    if app in ("bd", "tc"):
        return serving_extractor(app)
    raise FabricError(
        f"app {app!r} is not packet-servable (its features are not "
        f"derivable from a packet stream); deployable apps: ['bd', 'tc']"
    )


def rebuild_plan_pipelines(plan: FabricPlan) -> dict:
    """Rebuild one servable pipeline per unique (tier, app) placement.

    Devices of a tier are interchangeable replicas (same seed, same
    winning config), so one rebuild per (tier, app) serves every device
    of the tier.  The rebuild is the merge layer's rule —
    :meth:`ModelEvaluator.rebuild` under the entry's recorded seed —
    so the deployed pipeline is bit-identical to what the plan scored.
    Returns ``{"tier:app": pipeline}``.
    """
    spec = FabricSpec.from_dict(plan.spec)
    apps = {app.name: app for app in spec.apps}
    datasets: dict = {}
    pipelines: dict = {}
    for entry in plan.devices:
        key = f"{entry['tier']}:{entry['app']}"
        if key in pipelines:
            continue
        app = apps[entry["app"]]
        if app.name not in datasets:
            datasets[app.name] = app.dataset.materialize()
        dataset = datasets[app.name]
        tier = spec.topology.tier(entry["tier"])
        platform = PlatformSpec(entry["target"])
        if tier.resources:
            platform.constrain(resources=dict(tier.resources))
        model_entry = ModelEntry(
            name=key, dataset=app.dataset, metric=app.metric,
            algorithms=app.algorithms, throughput=app.throughput,
            seed=entry["seed"],
        )
        evaluator = ModelEvaluator(
            model_entry.to_model(dataset), dataset, entry["algorithm"],
            platform.backend(), platform.constraints(),
            seed=int(entry["seed"]), train_epochs=spec.train_epochs,
        )
        _, pipeline, _ = evaluator.rebuild(dict(entry["best_config"]))
        pipelines[key] = pipeline
    return pipelines


async def _wait_for_batches(workers: list, min_batches: int,
                            timeout_s: float) -> None:
    """Block until every engine has produced ``min_batches`` batches.

    The gate compares pre- vs post-swap windows, so a worker swapped
    before its first batch has no pre window and the verdict degrades
    to "traffic dried up".  Bounded wait; a worker that never fills is
    left to the gate to report.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        counts = [w.engine.stats.counters()["batches"] for w in workers]
        if all(count >= min_batches for count in counts):
            return
        await asyncio.sleep(0.05)


def deploy_plan(
    plan: FabricPlan,
    packets: list,
    gate: "RegressionGate | None" = None,
    rate: float = 4000.0,
    batch_size: int = 32,
    queue_depth: int = 4096,
    warm_s: float = 20.0,
) -> dict:
    """Roll a fabric plan onto a live fleet; return the rollout report.

    One worker per (device, app) placement, bootstrapped at ``v0``
    serving its rebuilt plan pipeline and fed ``packets`` in a loop at
    ``rate`` packets/s.  The rollout then walks switch tiers bottom-up,
    deploying version ``plan-<tier>-<app>`` to each tier's workers
    through the regression gate; any aborted tier stops the rollout
    (upper tiers stay on ``v0``) and the report says which gate fired.

    Report keys: ``ok``, ``tiers`` (per-tier per-app controller
    reports), ``workers`` (per-worker serving summaries), ``dropped``
    (fabric-total, the zero-drop gate), ``conserved`` (every enqueued
    row inferred, the conservation gate).
    """
    if not packets:
        raise FabricError("deploy_plan needs a packet trace")
    if rate <= 0:
        raise FabricError(f"deploy_plan rate must be > 0, got {rate}")
    gate = gate if gate is not None else RegressionGate(**_DEFAULT_GATE)
    pipelines = rebuild_plan_pipelines(plan)
    spec = FabricSpec.from_dict(plan.spec)
    tracer = get_tracer()
    outcome = "ok"
    try:
        with tracer.span("fabric.deploy", placements=len(plan.devices)):
            report = asyncio.run(
                _deploy(plan, spec, pipelines, packets, gate,
                        rate, batch_size, queue_depth, warm_s))
        if not report["ok"]:
            outcome = "aborted"
        return report
    except Exception:
        outcome = "error"
        raise
    finally:
        get_registry().counter(
            "repro_fabric_deploys_total",
            help="fabric plan rollouts by outcome",
            labels=("outcome",),
        ).labels(outcome=outcome).inc()


async def _deploy(plan, spec, pipelines, packets, gate, rate,
                  batch_size, queue_depth, warm_s) -> dict:
    from repro.serving import AsyncStreamEngine, loop_replay

    stop = asyncio.Event()
    workers = []
    for entry in plan.devices:
        key = f"{entry['tier']}:{entry['app']}"
        engine = AsyncStreamEngine(
            pipelines[key], extractor_for(entry["app"]),
            batch_size=batch_size, queue_depth=queue_depth,
            drop_policy="block",
        )
        workers.append(FleetWorker(
            f"{entry['device']}:{entry['app']}", engine, version="v0"))
    controller = FleetController(workers, gate=gate)
    for key, pipeline in pipelines.items():
        tier, _, app = key.partition(":")
        controller.register_pipeline(f"plan-{tier}-{app}", pipeline)
    start_workers(workers, lambda worker: loop_replay(packets, None, rate, stop))
    report = {"ok": True, "tiers": {}, "workers": {},
              "dropped": 0, "conserved": True}
    try:
        await _wait_for_batches(workers, gate.min_batches, warm_s)
        for tier in spec.topology.switch_tiers():
            tier_apps = sorted({
                e["app"] for e in plan.devices if e["tier"] == tier.tier})
            for app in tier_apps:
                names = [f"{e['device']}:{e['app']}"
                         for e in plan.devices
                         if e["tier"] == tier.tier and e["app"] == app]
                rollout = await controller.deploy(
                    f"plan-{tier.tier}-{app}", workers=names)
                report["tiers"].setdefault(tier.tier, {})[app] = {
                    k: rollout[k] for k in
                    ("version", "ok", "aborted_at", "reason",
                     "upgraded", "rolled_back")
                }
                if not rollout["ok"]:
                    report["ok"] = False
                    break
            if not report["ok"]:
                break
    finally:
        await stop_workers(workers, stop)
    for worker in workers:
        counters = worker.engine.stats.counters()
        report["workers"][worker.name] = {
            "version": worker.version,
            "packets": counters["packets"],
            "enqueued": counters["enqueued"],
            "batch_rows": counters["batch_rows"],
            "dropped": counters["dropped"],
            "swaps": counters["swaps"],
        }
        report["dropped"] += counters["dropped"]
        if counters["batch_rows"] != counters["enqueued"]:
            report["conserved"] = False
    return report
