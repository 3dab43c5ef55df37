"""The fabric planner: compile a topology, not a switch.

:func:`plan_fabric` turns a :class:`FabricSpec` — a topology, the apps
running on it, and an optional traffic matrix — into a
:class:`FabricPlan`: one compiled winner per (device, app), each within
its device's resource budget, plus fabric-level rollups.  Per-device
compiles fan out through :func:`repro.distrib.run_sharded` (one work
unit per device-app pair, fault-tolerant, any launcher), and the merge
into a plan is deterministic:

* model seeds derive from the (tier, app) *indices* via
  :func:`fabric_model_seed` — never from execution order, shard count,
  or retries — so every device of a tier searches the same trajectory
  and the same spec + seed always yields the same winners,
* the plan document is assembled in sorted key order and serialized
  with ``sort_keys=True``, so equal plans are byte-identical JSON —
  the determinism gate ``bench_fabric.py`` and CI enforce.

Placement runs after compilation (model footprints are a search
*output*): per-device usage sums over the device's apps and must stay
within :func:`~repro.fabric.placement.tier_budget`; an infeasible
placement raises :class:`~repro.errors.PlacementError` naming the
violated budget instead of silently shipping an oversized plan.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.distrib.driver import run_sharded
from repro.distrib.launchers import make_launcher
from repro.distrib.runspec import DatasetRef, ModelEntry, RunSpec
from repro.errors import FabricError, PlacementError
from repro.fabric.placement import (
    check_budget,
    headroom,
    placements_for,
    sum_usage,
    tier_budget,
)
from repro.fabric.topology import TIER_ORDER, Topology
from repro.fabric.traffic import TrafficMatrix
from repro.fsio import jsonable
from repro.obs import get_registry, get_tracer
from repro.rng import derive
from repro.wire import Fields

__all__ = [
    "FabricApp",
    "FabricSpec",
    "FabricPlan",
    "fabric_model_seed",
    "plan_fabric",
    "load_fabric_spec",
]

#: Derivation namespace separating fabric model seeds from every other
#: consumer of :func:`repro.rng.derive` on the same root seed.
_SEED_SALT = 500_000


def fabric_model_seed(seed: int, tier: str, app_index: int) -> int:
    """The model-search seed for ``app_index``-th app of a tier.

    Derived from the tier's *position* in :data:`TIER_ORDER` and the
    app's index in the spec — never from device identity, execution
    order, or shard layout — so every device of a tier runs an
    identical search trajectory (they are interchangeable replicas) and
    a plan is reproducible from nothing but (spec, seed).
    """
    tier_index = TIER_ORDER.index(tier)
    salt = _SEED_SALT + 1000 * tier_index + int(app_index)
    return int(derive(int(seed), salt).integers(0, 2**31))


@dataclass
class FabricApp:
    """One application deployed across the fabric.

    Attributes
    ----------
    name:
        app key; combined with a device name it keys plan entries
        (``"leaf0:bd"``).
    dataset:
        a :class:`~repro.distrib.runspec.DatasetRef` — the app's
        training data travels by reference so shard workers on any
        machine materialize identical arrays.
    metric:
        optimization metric (``f1``/``accuracy``/``v_measure``).
    algorithms:
        candidate algorithm families (empty = let the core choose).
    tiers:
        switch tiers whose devices run this app (every device of a
        named tier serves it).
    throughput:
        optional minimum Gpkt/s carried into the compile constraints.
    """

    name: str
    dataset: DatasetRef
    metric: str = "f1"
    algorithms: tuple = ()
    tiers: tuple = ("leaf",)
    throughput: "float | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise FabricError("fabric app needs a name")
        self.algorithms = tuple(self.algorithms)
        self.tiers = tuple(self.tiers)
        if not self.tiers:
            raise FabricError(f"app {self.name!r} names no tiers")

    def to_dict(self) -> dict:
        """Plain-dict wire form (dataset travels as a ref, not arrays)."""
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "metric": self.metric,
            "algorithms": list(self.algorithms),
            "tiers": list(self.tiers),
            "throughput": self.throughput,
        }

    @staticmethod
    def from_dict(doc: dict) -> "FabricApp":
        """Rebuild an app declaration from its :meth:`to_dict` document."""
        fields = Fields(doc, "", ("name", "dataset", "metric", "algorithms",
                                  "tiers", "throughput"), FabricError)
        return FabricApp(
            name=fields.text("name"),
            dataset=fields.nested("dataset", DatasetRef.from_dict),
            metric=fields.text("metric", "f1"),
            algorithms=fields.names("algorithms", ()),
            tiers=fields.names("tiers", ("leaf",)),
            throughput=fields.number("throughput", None, none=True),
        )


@dataclass
class FabricSpec:
    """Everything :func:`plan_fabric` needs: topology, apps, knobs.

    The scalar knobs mirror :class:`~repro.distrib.runspec.RunSpec`
    (per-family BO budget, warmup, training epochs, root seed);
    ``traffic`` is optional — without it the plan simply carries no
    oversubscription rollup and router weights default to 1.
    """

    topology: Topology
    apps: list
    traffic: "TrafficMatrix | None" = None
    budget: int = 8
    warmup: int = 3
    train_epochs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.apps:
            raise FabricError("fabric spec needs at least one app")
        names = [app.name for app in self.apps]
        if len(set(names)) != len(names):
            raise FabricError(f"duplicate app names: {names}")
        if self.budget < 1:
            raise FabricError(f"budget must be >= 1, got {self.budget}")
        # Surface bad tier references at spec construction, not mid-plan.
        placements_for(self.topology, self.apps)

    def to_dict(self) -> dict:
        """Plain-dict wire form — what fabric spec files hold."""
        doc = {
            "topology": self.topology.to_dict(),
            "apps": [app.to_dict() for app in self.apps],
            "budget": self.budget,
            "warmup": self.warmup,
            "train_epochs": self.train_epochs,
            "seed": self.seed,
        }
        if self.traffic is not None:
            doc["traffic"] = self.traffic.to_dict()
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "FabricSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict`.

        A malformed ``doc`` (missing key, wrong type, unknown key) raises
        :class:`FabricError` naming the field (a bad dataset reference
        raises :class:`SpecificationError`).
        """
        fields = Fields(doc, "fabric spec", (
            "topology", "apps", "traffic", "budget", "warmup",
            "train_epochs", "seed",
        ), FabricError)
        traffic = fields.mapping("traffic", None, none=True)
        return FabricSpec(
            topology=Topology.from_dict(fields.mapping("topology")),
            apps=fields.each("apps", FabricApp.from_dict),
            traffic=TrafficMatrix.from_dict(traffic) if traffic else None,
            budget=fields.integer("budget", 8),
            warmup=fields.integer("warmup", 3),
            train_epochs=fields.integer("train_epochs", 10),
            seed=fields.integer("seed", 0),
        )


def _load_doc(path: str) -> dict:
    """Parse a JSON or (when pyyaml is available) YAML document."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise FabricError(
                f"{path}: YAML specs need pyyaml; rewrite the spec as JSON"
            ) from exc
        doc = yaml.safe_load(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FabricError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FabricError(f"{path}: expected a mapping at top level")
    return doc


def load_fabric_spec(path: str) -> FabricSpec:
    """Load a :class:`FabricSpec` from a ``.json`` / ``.yaml`` file.

    YAML needs ``pyyaml``, which is optional.
    """
    if not os.path.exists(path):
        raise FabricError(f"no fabric spec at {path!r}")
    return FabricSpec.from_dict(_load_doc(path))


@dataclass
class FabricPlan:
    """A topology-wide deployment plan: what runs where, within budget.

    ``devices`` holds one entry per (device, app) with the winning
    algorithm/config, its objective, resource usage, performance
    estimate, and the explicit model seed the deploy path rebuilds
    from; ``placement`` holds per-device totals, limits, and headroom;
    ``traffic`` the oversubscription rollup.  :meth:`to_json` is
    byte-deterministic (sorted keys, no timestamps), which is what lets
    CI compare two independently computed plans with ``cmp``.
    """

    spec: dict
    devices: list = field(default_factory=list)
    placement: dict = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)
    seed: int = 0

    def tiers(self) -> list:
        """Tiers that actually host at least one placed model."""
        seen = []
        for entry in self.devices:
            if entry["tier"] not in seen:
                seen.append(entry["tier"])
        return seen

    def to_dict(self) -> dict:
        """The full plan document (numpy scalars coerced to stdlib)."""
        return jsonable({
            "version": 1,
            "seed": self.seed,
            "spec": self.spec,
            "devices": self.devices,
            "placement": self.placement,
            "traffic": self.traffic,
        })

    def to_json(self) -> str:
        """Canonical byte-deterministic serialization of the plan."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str) -> str:
        """Write :meth:`to_json` to ``path`` (dirs created); return it."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        return path

    @staticmethod
    def from_dict(doc: dict) -> "FabricPlan":
        """Rebuild a plan from its :meth:`to_dict` document."""
        return FabricPlan(
            spec=doc.get("spec", {}),
            devices=list(doc.get("devices", [])),
            placement=dict(doc.get("placement", {})),
            traffic=dict(doc.get("traffic", {})),
            seed=int(doc.get("seed", 0)),
        )

    @staticmethod
    def load(path: str) -> "FabricPlan":
        """Load a saved plan JSON; loud :class:`FabricError` if absent."""
        if not os.path.exists(path):
            raise FabricError(f"no fabric plan at {path!r}")
        with open(path, encoding="utf-8") as handle:
            return FabricPlan.from_dict(json.load(handle))


def _tier_runspec(spec: FabricSpec, tier, apps: list) -> RunSpec:
    """One :class:`RunSpec` per switch tier: a work unit per device-app.

    Every device of the tier gets its own model entry (``device:app``)
    with an explicit :func:`fabric_model_seed` — so ``run_sharded``
    schedules, retries, and balances per device, while replicas still
    land on identical winners.
    """
    app_index = {app.name: i for i, app in enumerate(spec.apps)}
    models = []
    for index in range(tier.count):
        device = f"{tier.tier}{index}"
        for app in apps:
            models.append(ModelEntry(
                name=f"{device}:{app.name}",
                dataset=app.dataset,
                metric=app.metric,
                algorithms=app.algorithms,
                throughput=app.throughput,
                seed=fabric_model_seed(spec.seed, tier.tier,
                                       app_index[app.name]),
            ))
    return RunSpec(
        target=tier.device,
        models=models,
        resources=dict(tier.resources) if tier.resources else {},
        budget=spec.budget,
        warmup=spec.warmup,
        train_epochs=spec.train_epochs,
        seed=spec.seed,
    )


def plan_fabric(
    spec: FabricSpec,
    shards: int = 1,
    launcher=None,
    shard_dir: "str | None" = None,
    max_retries: int = 0,
) -> FabricPlan:
    """Compile every (device, app) pair and assemble the fabric plan.

    Parameters mirror :func:`repro.distrib.run_sharded`; ``launcher``
    may be a launcher instance (reused across tiers) or a registry name
    (a fresh launcher per tier — what the CLI passes, and the safe
    choice for stateful launchers like the work queue).  Compilation
    runs tier by tier, bottom-up; each tier is one sharded run whose
    results are bit-identical to a serial compile of the same entries,
    so the assembled plan is byte-identical across shard counts,
    launcher types, and injected worker crashes.

    Raises :class:`PlacementError` (after compiling) when any device's
    placed models exceed its budget, naming the device and resource.
    """
    tracer = get_tracer()
    by_tier = placements_for(spec.topology, spec.apps)
    outcome = "ok"
    try:
        with tracer.span("fabric.plan", shards=shards,
                         devices=len(spec.topology.devices())):
            devices: list = []
            for tier in spec.topology.switch_tiers():
                apps = by_tier[tier.tier]
                if not apps:
                    continue
                run = _tier_runspec(spec, tier, apps)
                tier_launcher = (
                    make_launcher(launcher) if isinstance(launcher, str)
                    else launcher
                )
                tier_dir = (os.path.join(shard_dir, tier.tier)
                            if shard_dir else None)
                out = run_sharded(
                    run, shards=shards, launcher=tier_launcher,
                    shard_dir=tier_dir, max_retries=max_retries,
                )
                for entry in run.models:
                    device, _, app = entry.name.partition(":")
                    report = out.report.models[entry.name]
                    devices.append({
                        "device": device,
                        "tier": tier.tier,
                        "target": tier.device,
                        "app": app,
                        "algorithm": report.algorithm,
                        "best_config": dict(report.best_config),
                        "objective": float(report.objective),
                        "metric": report.metric,
                        "resources": dict(report.resources),
                        "performance": {
                            "throughput_gpps":
                                float(report.performance.throughput_gpps),
                            "latency_ns":
                                float(report.performance.latency_ns),
                        },
                        "n_params": int(report.n_params),
                        "seed": entry.seed,
                    })
            devices.sort(key=lambda e: (e["device"], e["app"]))

            with tracer.span("fabric.place",
                             devices=len({e["device"] for e in devices})):
                placement = _place(spec, devices)

            traffic_doc: dict = {}
            if spec.traffic is not None:
                traffic_doc = {
                    "boundaries":
                        spec.traffic.oversubscription(spec.topology),
                    "worst":
                        spec.traffic.worst_oversubscription(spec.topology),
                    "route_weights": spec.traffic.route_weights(),
                }

            return FabricPlan(
                spec=spec.to_dict(),
                devices=devices,
                placement=placement,
                traffic=traffic_doc,
                seed=spec.seed,
            )
    except PlacementError:
        outcome = "infeasible"
        raise
    except Exception:
        outcome = "error"
        raise
    finally:
        get_registry().counter(
            "repro_fabric_plans_total",
            help="fabric planning attempts by outcome",
            labels=("outcome",),
        ).labels(outcome=outcome).inc()


def _place(spec: FabricSpec, devices: list) -> dict:
    """Budget-check every device; return the placement rollup.

    ``{"devices": {name: {"tier", "used", "limits", "headroom"}},
    "tiers": {tier: {"headroom": min-over-devices per resource}}}``.
    """
    budgets = {
        tier.tier: tier_budget(tier)
        for tier in spec.topology.switch_tiers()
    }
    per_device: dict = {}
    for entry in devices:
        slot = per_device.setdefault(
            entry["device"], {"tier": entry["tier"], "usages": []})
        slot["usages"].append(entry["resources"])
    placement: dict = {"devices": {}, "tiers": {}}
    for device in sorted(per_device):
        slot = per_device[device]
        limits = budgets[slot["tier"]]
        used = sum_usage(slot["usages"])
        check_budget(device, used, limits)
        placement["devices"][device] = {
            "tier": slot["tier"],
            "used": used,
            "limits": dict(limits),
            "headroom": headroom(used, limits),
        }
    for tier in sorted({slot["tier"] for slot in per_device.values()}):
        rows = [doc["headroom"]
                for doc in placement["devices"].values()
                if doc["tier"] == tier]
        placement["tiers"][tier] = {
            "headroom": {
                name: min(row[name] for row in rows)
                for name in rows[0]
            },
        }
    return placement
