"""Fabric-scale compilation: from one switch to a whole topology.

Single-switch :func:`repro.generate` answers "what is the best pipeline
for *this* device?".  This package answers the datacenter question the
paper's deployment story implies: given a **topology** (servers, leaf,
spine, core), the **apps** running on it, and a **traffic matrix**,
compile every device, check every budget, and produce one deterministic
deployment plan:

* :mod:`repro.fabric.topology` — tier specs, expansion into devices and
  links, port/order validation,
* :mod:`repro.fabric.traffic` — per-app demands and boundary
  oversubscription,
* :mod:`repro.fabric.placement` — per-switch budgets from the backend
  resource models; infeasible placements raise
  :class:`~repro.errors.PlacementError` naming the exhausted budget,
* :mod:`repro.fabric.planner` — :func:`plan_fabric` fans per-device
  compiles through :func:`repro.distrib.run_sharded` and merges them
  into a byte-deterministic :class:`FabricPlan`,
* :mod:`repro.fabric.report` — :class:`FabricReport` rollups (accuracy
  floor, latency ceiling, tier headroom, worst oversubscription),
* :mod:`repro.fabric.routing` — topology-aware packet dispatch for
  :class:`~repro.serving.router.PipelineRouter`,
* :mod:`repro.fabric.deploy` — rebuild the plan's pipelines and roll
  them out tier by tier through the gated
  :class:`~repro.control.FleetController`.

The planner inherits the distrib layer's invariant: same spec + seed
produces a byte-identical plan across shard counts, launcher types, and
injected worker crashes, because every model seed derives from (tier,
app) indices — never from execution order.
"""

from repro.fabric.deploy import deploy_plan, extractor_for, rebuild_plan_pipelines
from repro.fabric.placement import (
    check_budget,
    headroom,
    placements_for,
    sum_usage,
    tier_budget,
)
from repro.fabric.planner import (
    FabricApp,
    FabricPlan,
    FabricSpec,
    fabric_model_seed,
    load_fabric_spec,
    plan_fabric,
)
from repro.fabric.report import FabricReport
from repro.fabric.routing import (
    ingress_tier,
    leaf_for_server,
    server_for_ip,
)
from repro.fabric.topology import (
    TIER_ORDER,
    Device,
    Link,
    TierSpec,
    Topology,
)
from repro.fabric.traffic import Demand, TrafficMatrix

__all__ = [
    # topology
    "TIER_ORDER",
    "TierSpec",
    "Device",
    "Link",
    "Topology",
    # traffic
    "Demand",
    "TrafficMatrix",
    # placement
    "tier_budget",
    "check_budget",
    "headroom",
    "placements_for",
    "sum_usage",
    # planner
    "FabricApp",
    "FabricSpec",
    "FabricPlan",
    "fabric_model_seed",
    "plan_fabric",
    "load_fabric_spec",
    # report
    "FabricReport",
    # routing
    "server_for_ip",
    "leaf_for_server",
    "ingress_tier",
    # deploy
    "extractor_for",
    "rebuild_plan_pipelines",
    "deploy_plan",
]
