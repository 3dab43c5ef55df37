#!/usr/bin/env python3
"""Fabric planning and rollout: the three gates CI holds the plan to.

A fabric plan is only trustworthy if it is *reproducible*, *honest
about budgets*, and *deployable without loss*.  This bench asserts all
three on the canonical 2-leaf/1-spine pod (the committed
``examples/fabric_pod.json`` shape):

1. **plan determinism** — the same spec + seed must produce
   byte-identical plan JSON across independent runs, shard counts,
   launcher types (in-process vs subprocess), and an injected
   worker crash absorbed by retries (``REPRO_CHAOS_KILL`` hard-kills
   one unit's first attempt; the replan must not move a byte).
2. **placement** — two detectors that each fit a 4-MAT leaf alone but
   not together must raise :class:`~repro.errors.PlacementError` naming
   the device and the exhausted resource (the failure only fabric-level
   budget summing can catch); the healthy plan must report positive
   headroom on every tier.
3. **deploy** — rolling the plan onto a live fleet (one worker per
   placement, looping replay, gated tier-by-tier rollout) must upgrade
   every worker with **zero drops** and full row conservation.

Run:  PYTHONPATH=src python benchmarks/bench_fabric.py [--smoke]

``--smoke`` shrinks the search budget and the replay; every gate holds
in both modes, so CI runs it as a blocking job.  Results land in
``benchmarks/results/fabric.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_json_result  # noqa: E402

from repro.distrib.launchers import SubprocessLauncher
from repro.distrib.runspec import DatasetRef
from repro.distrib.worker import CHAOS_KILL_ENV
from repro.errors import PlacementError
from repro.fabric import (
    Demand,
    FabricApp,
    FabricReport,
    FabricSpec,
    TierSpec,
    Topology,
    TrafficMatrix,
    deploy_plan,
    plan_fabric,
)
from repro.scenario import botnet_trace


def build_spec(smoke: bool, leaf_resources: "dict | None" = None,
               second_leaf_app: bool = False) -> FabricSpec:
    topology = Topology([
        TierSpec("server", count=8, ports=1, link_gbps=10.0),
        TierSpec("leaf", count=2, device="tofino", ports=8, link_gbps=40.0,
                 resources=leaf_resources),
        TierSpec("spine", count=1, device="taurus", ports=4, link_gbps=100.0),
    ])
    apps = [
        FabricApp(
            "bd",
            DatasetRef.for_app("bd", n_train_flows=40 if smoke else 80,
                               n_test_flows=2, seed=13,
                               per_packet_test=False),
            algorithms=("decision_tree",), tiers=("leaf",),
        ),
        FabricApp(
            "tc", DatasetRef.for_app("tc", seed=11),
            algorithms=("svm",), tiers=("spine",),
        ),
    ]
    if second_leaf_app:
        # A second detector sharing the leaves: each compiles within the
        # per-model envelope, but the *sum* must clear the device budget
        # — the case only fabric-level placement can reject.
        apps.append(FabricApp(
            "bd2",
            DatasetRef.for_app("bd", n_train_flows=40 if smoke else 80,
                               n_test_flows=2, seed=17,
                               per_packet_test=False),
            algorithms=("decision_tree",), tiers=("leaf",),
        ))
    traffic = TrafficMatrix([
        Demand("bd", "server", "server", 24.0),
        Demand("tc", "server", "spine", 8.0),
    ])
    return FabricSpec(topology, apps, traffic=traffic,
                      budget=2 if smoke else 3, warmup=1,
                      train_epochs=3, seed=0)


def gate_determinism(spec: FabricSpec, scratch: str) -> dict:
    """Gate 1: plan bytes invariant to runs, shards, launchers, crashes."""
    t0 = time.time()
    reference = plan_fabric(spec, shards=1).to_json()

    rerun = plan_fabric(spec, shards=1).to_json()
    assert rerun == reference, "second identical run moved plan bytes"

    sharded = plan_fabric(spec, shards=2).to_json()
    assert sharded == reference, "shard count moved plan bytes"

    sub = plan_fabric(
        spec, shards=2, launcher=SubprocessLauncher(timeout=300),
        shard_dir=os.path.join(scratch, "sub"),
    ).to_json()
    assert sub == reference, "subprocess launcher moved plan bytes"

    marker = os.path.join(scratch, "chaos-marker")
    os.environ[CHAOS_KILL_ENV] = f"unit-0000.a0@{marker}"
    try:
        chaotic = plan_fabric(
            spec, shards=2, launcher=SubprocessLauncher(timeout=300),
            shard_dir=os.path.join(scratch, "chaos"), max_retries=2,
        ).to_json()
    finally:
        del os.environ[CHAOS_KILL_ENV]
    assert os.path.exists(marker), "the injected crash never fired"
    assert chaotic == reference, "a retried crash moved plan bytes"

    print(f"  byte-identical across 2 runs, 2 shard counts, 2 launchers, "
          f"and 1 hard-killed worker ({len(reference)} bytes)")
    return {"plan_bytes": len(reference),
            "determinism_wall_s": round(time.time() - t0, 3)}


def gate_placement(spec: FabricSpec, smoke: bool) -> dict:
    """Gate 2: healthy headroom; an over-budget leaf fails loudly."""
    plan = plan_fabric(spec)
    report = FabricReport.from_plan(plan)
    headroom = report.tier_headroom()
    for tier, room in headroom.items():
        assert all(v > 0 for v in room.values()), \
            f"tier {tier} reports no headroom on a healthy plan: {room}"

    tight = build_spec(smoke, leaf_resources={"mats": 4},
                       second_leaf_app=True)
    try:
        plan_fabric(tight)
    except PlacementError as exc:
        message = str(exc)
        assert "leaf0" in message and "mats" in message, message
        print(f"  over-budget placement refused: {message}")
    else:
        raise AssertionError("two detectors on a 4-MAT leaf were not "
                             "rejected")
    return {
        "leaf_headroom_mats": headroom["leaf"].get("mats"),
        "worst_oversubscription":
            report.worst_oversubscription()["oversubscription"],
    }


def gate_deploy(spec: FabricSpec, smoke: bool) -> dict:
    """Gate 3: gated rollout upgrades everything, drops nothing."""
    plan = plan_fabric(spec)
    packets, _ = botnet_trace(30 if smoke else 60, seed=1234, labeled=False)
    t0 = time.time()
    rollout = deploy_plan(plan, packets, rate=6000.0)
    wall = time.time() - t0
    assert rollout["ok"], f"rollout aborted: {rollout['tiers']}"
    assert rollout["dropped"] == 0, \
        f"rollout dropped {rollout['dropped']} packets"
    assert rollout["conserved"], "enqueued rows were not all inferred"
    upgraded = [w for w, doc in rollout["workers"].items()
                if doc["version"].startswith("plan-")]
    assert len(upgraded) == len(plan.devices), rollout["workers"]
    packets_served = sum(doc["packets"]
                         for doc in rollout["workers"].values())
    print(f"  {len(upgraded)} workers upgraded, 0 dropped, "
          f"{packets_served} packets served in {wall:.1f} s")
    return {"workers_upgraded": len(upgraded),
            "packets_served": packets_served,
            "deploy_wall_s": round(wall, 3)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small search budget + short replay (CI mode)")
    args = parser.parse_args()

    import tempfile

    spec = build_spec(args.smoke)
    metrics: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as scratch:
        print("== gate 1: plan determinism ==")
        metrics.update(gate_determinism(spec, scratch))
        print("== gate 2: placement budgets ==")
        metrics.update(gate_placement(spec, args.smoke))
        print("== gate 3: lossless gated rollout ==")
        metrics.update(gate_deploy(spec, args.smoke))

    path = write_json_result(
        "fabric",
        config={"smoke": args.smoke, "budget": spec.budget,
                "devices": len(spec.topology.devices())},
        metrics=metrics,
    )
    print(f"all fabric gates passed -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
