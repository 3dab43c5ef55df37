#!/usr/bin/env python3
"""Fabric-scale compilation: one plan for a whole pod.

Every earlier example compiles a pipeline for *one* switch.  Real
deployments are fabrics: racks of servers under Tofino leaves, a Taurus
spine above them, different apps at different tiers.  This example runs
the full fabric path end to end on a small pod (8 servers, 2 leaves,
1 spine):

1. **declare** — a :class:`~repro.fabric.Topology` (tiers, port counts,
   link speeds), the apps per tier (botnet detection on the leaves,
   IoT traffic classification on the spine), and a traffic matrix,
2. **plan** — :func:`~repro.fabric.plan_fabric` fans one compile per
   (device, app) through the distributed search layer and merges the
   winners into a deterministic :class:`~repro.fabric.FabricPlan`:
   same spec + seed, same plan bytes, for any shard count or launcher,
3. **check** — every device's models are summed against its backend's
   resource budget (an oversized placement raises
   :class:`~repro.errors.PlacementError` naming the exhausted budget),
   and the traffic matrix rolls up per-boundary oversubscription,
4. **route** — :func:`~repro.fabric.topology_dispatch` steers replayed
   packets by ingress tier (same-leaf traffic to the leaf route,
   cross-leaf to the spine) through the serving router's dispatch mode,
5. **deploy** — :func:`~repro.fabric.deploy_plan` rebuilds each plan
   pipeline bit-identically and rolls it onto a live fleet tier by
   tier through the gated fleet controller: hitless swaps, zero drops.

Watch for: byte-identical plan JSON across two independent runs, per
tier budget headroom, the worst-oversubscribed boundary, and a rollout
report with every worker upgraded and nothing dropped.

Run:  PYTHONPATH=src python examples/fabric_deployment.py
(see docs/fabric.md for the topology schema and determinism argument)
"""

from repro.distrib.runspec import DatasetRef
from repro.fabric import (
    Demand,
    FabricApp,
    FabricReport,
    FabricSpec,
    TierSpec,
    Topology,
    TrafficMatrix,
    deploy_plan,
    ingress_tier,
    plan_fabric,
)
from repro.scenario import botnet_trace


def build_spec() -> FabricSpec:
    """The pod: 8 servers, 2 Tofino leaves (bd), 1 Taurus spine (tc)."""
    topology = Topology([
        TierSpec("server", count=8, ports=1, link_gbps=10.0),
        TierSpec("leaf", count=2, device="tofino", ports=8, link_gbps=40.0),
        TierSpec("spine", count=1, device="taurus", ports=4, link_gbps=100.0),
    ])
    apps = [
        FabricApp(
            "bd",
            DatasetRef.for_app("bd", n_train_flows=80, n_test_flows=2,
                               seed=13, per_packet_test=False),
            algorithms=("decision_tree",), tiers=("leaf",),
        ),
        FabricApp(
            "tc",
            DatasetRef.for_app("tc", seed=11),
            algorithms=("svm",), tiers=("spine",),
        ),
    ]
    traffic = TrafficMatrix([
        Demand("bd", "server", "server", 24.0),   # east-west, hairpins a leaf
        Demand("tc", "server", "spine", 8.0),     # north-south
    ])
    return FabricSpec(topology, apps, traffic=traffic,
                      budget=3, warmup=1, train_epochs=3, seed=0)


def main() -> None:
    spec = build_spec()

    print("== planning the fabric (one compile per device-app) ==")
    plan = plan_fabric(spec, shards=2)
    report = FabricReport.from_plan(plan)
    print(report.summary())

    print("\n== determinism: replanning must reproduce the bytes ==")
    again = plan_fabric(spec, shards=1)
    assert plan.to_json() == again.to_json(), "plan bytes diverged!"
    print(f"byte-identical across runs and shard counts "
          f"({len(plan.to_json())} bytes)")

    print("\n== topology-aware routing over a replayed trace ==")
    packets, _ = botnet_trace(40, seed=1234, labeled=False)
    by_tier: dict = {}
    for packet in packets:
        tier = ingress_tier(spec.topology, packet)
        by_tier[tier] = by_tier.get(tier, 0) + 1
    for tier in sorted(by_tier):
        print(f"  {tier}: {by_tier[tier]} packets "
              f"({by_tier[tier] / len(packets):.0%})")

    print("\n== gated tier-by-tier rollout ==")
    rollout = deploy_plan(plan, packets, rate=6000.0)
    for tier, by_app in rollout["tiers"].items():
        for app, result in by_app.items():
            print(f"  {tier}:{app} -> {result['version']}: "
                  f"{'ok' if result['ok'] else result['reason']} "
                  f"(upgraded: {', '.join(result['upgraded'])})")
    print(f"  dropped: {rollout['dropped']}, "
          f"conserved: {rollout['conserved']}")
    assert rollout["ok"] and rollout["dropped"] == 0, "rollout failed"
    print("\nfabric deployed: every placement live, nothing dropped.")


if __name__ == "__main__":
    main()
