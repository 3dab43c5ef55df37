#!/usr/bin/env python3
"""Fleet control plane under live traffic: gated rollout + auto-rollback.

One fleet, four legs, all through the real HTTP control plane
(:class:`ControlServer` on localhost, driven by :class:`ControlClient`)
while every worker keeps serving a looping botnet replay:

1. **gated rolling deploy** — upgrade the whole fleet from v0 to v1
   mid-traffic, one worker at a time, each gated on its own pre- vs
   post-swap telemetry window.  Every worker must upgrade; nothing may
   drop.
2. **conflict** — a second deploy issued while a rollout is in flight
   must be rejected with HTTP 409, and must not disturb the rollout.
3. **regression auto-rollback** — deploy a deliberately slow candidate
   (a :class:`TimedPipeline` adding a fat per-batch device delay).  The
   first worker's post-swap p99 blows the gate, the controller rolls
   *that worker* back automatically and aborts the rollout: the rest of
   the fleet never sees the bad pipeline.  This is asserted — the
   report must say ``regressed``, the worker must be back on v1, and
   the remaining workers must be untouched.
4. **instant rollback** — ``POST /rollback`` reverts a healthy worker
   to its previous pipeline with zero drops.
5. **observability scrape** — ``GET /metrics`` is hit mid-rollout and
   after it; both bodies must parse as valid Prometheus text exposition,
   counters must be monotone between the scrapes, a label value packed
   with quotes/backslashes/newlines must round-trip the wire intact,
   and the deploy/settle spans must be visible on ``GET /trace``.  The
   bench forces ``REPRO_OBS=1`` on itself so these gates are
   deterministic.

Throughout: block-mode ingress, so the zero-drop gate is meaningful —
``enqueued == packets + dropped`` must hold on every worker once the
stream drains, and total drops must be exactly 0.

Run:  PYTHONPATH=src python benchmarks/bench_control.py [--smoke]

``--smoke`` shrinks the fleet and the trace; every correctness gate
(upgrade, 409, asserted auto-rollback, conservation) holds in both
modes, so CI runs it as a blocking job.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

# Leg 5 needs span counters on: force before repro.obs caches a tracer,
# and keep the trace sink under results/ rather than the caller's cwd.
os.environ["REPRO_OBS"] = "1"
os.environ.setdefault("REPRO_OBS_DIR", os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "obs"))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_json_result  # noqa: E402

from repro.control import (
    ControlClient,
    DeployConflict,
    FleetController,
    FleetWorker,
    RegressionGate,
    serve_fleet,
)
from repro.obs import get_registry, parse_prometheus
from repro.scenario import botnet_trace, serving_extractor, serving_pipeline
from repro.serving import AsyncStreamEngine, TimedPipeline, loop_replay

BATCH_SIZE = 32
MAX_LATENCY_US = 5000.0
#: Offered load per worker (packets/s) — comfortably under capacity so
#: the pre-swap baseline is healthy queueing, not saturation.
RATE_PPS = 2000.0
#: Per-batch device delay of the deliberately bad candidate; at ~60
#: batches/s offered this is far beyond capacity, so post-swap latency
#: explodes past any sane gate.
SLOW_PER_BATCH_S = 0.25

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


async def run_bench(args, lines: list, failures: list,
                    obs_summary: dict) -> dict:
    n_workers = 2 if args.smoke else 3
    n_train = 60 if args.smoke else 150
    n_flows = 50 if args.smoke else 120

    v0, _ = serving_pipeline("bd", 13, data_seed=13, n_train_flows=n_train,
                             name="bd-v0")
    v1, _ = serving_pipeline("bd", 29, data_seed=29, n_train_flows=n_train,
                             name="bd-v1")
    v_slow = TimedPipeline(v1, per_batch_s=SLOW_PER_BATCH_S)
    packets, labels = botnet_trace(n_flows, seed=99)
    workers = [
        FleetWorker(f"w{index}", AsyncStreamEngine(
            v0, serving_extractor("bd"), batch_size=BATCH_SIZE,
            max_latency=MAX_LATENCY_US * 1e-6, queue_depth=1024,
            drop_policy="block"), version="v0")
        for index in range(n_workers)
    ]
    gate = RegressionGate(latency_factor=2.5, latency_floor_s=0.05,
                          min_batches=4, settle_s=10.0)
    controller = FleetController(workers, gate=gate)
    controller.register_pipeline("v1", v1)
    controller.register_pipeline("v-slow", v_slow)

    async def legs(port: int) -> None:
        client = ControlClient(port=port)
        lines.append(f"fleet: {n_workers} workers x bd, {len(packets)} packets "
                     f"per lap at {RATE_PPS:.0f} pkt/s, controller on :{port}")
        await asyncio.sleep(1.5)  # build the pre-swap telemetry window

        # Leg 1: gated rolling deploy v0 -> v1 under live traffic.
        report = await client.deploy("v1")
        lines.append(
            f"deploy v1: ok={report['ok']} upgraded={report['upgraded']}")
        if not report["ok"] or report["upgraded"] != [w.name for w in workers]:
            failures.append(f"rolling deploy did not upgrade the fleet: "
                            f"{report['reason']}")
        for worker in workers:
            if worker.engine.pipeline is not v1:
                failures.append(f"{worker.name} is not serving v1 after deploy")

        # Legs 2+3: a bad candidate mid-traffic, with a competing deploy.
        # The slow rollout holds the controller for >= min_batches slow
        # batches, so the concurrent deploy must observe the conflict.
        slow_task = asyncio.create_task(client.deploy("v-slow"))
        await asyncio.sleep(0.3)
        got_conflict = False
        try:
            await client.deploy("v1")
        except DeployConflict as exc:
            got_conflict = True
            lines.append(f"concurrent deploy: 409 ({exc})")
        if not got_conflict:
            failures.append("concurrent deploy was not rejected with 409")

        # Leg 5a: scrape /metrics while the slow rollout is in flight.
        # The in-progress deploy must already be visible (the op counter
        # bumps at lock-acquire time), and the body must be strictly
        # parseable Prometheus text.
        try:
            scrape_mid = parse_prometheus(await client.metrics())
        except Exception as exc:
            scrape_mid = {}
            failures.append(f"mid-rollout /metrics did not parse: {exc}")
        ops_mid = sum(
            value for (name, labels), value in scrape_mid.items()
            if name == "repro_control_ops_total"
            and ("op", "deploy") in labels
        )
        lines.append(f"mid-rollout scrape: {len(scrape_mid)} samples, "
                     f"deploy ops counter {ops_mid:.0f}")
        if ops_mid < 2:  # leg 1's deploy + the in-flight slow deploy
            failures.append(
                f"mid-rollout scrape shows {ops_mid:.0f} deploy ops, "
                f"expected >= 2 (the in-flight rollout must be visible)")
        served_workers = {
            labels for (name, labels) in scrape_mid
            if name == "repro_serving_packets_total"
        }
        if len(served_workers) != n_workers:
            failures.append(
                f"scrape exposes {len(served_workers)} workers' serving "
                f"counters, expected {n_workers}")

        report = await slow_task
        first = workers[0]
        outcome = report["workers"].get(first.name, {})
        verdict = outcome.get("verdict") or {}
        lines.append(
            f"deploy v-slow: ok={report['ok']} aborted_at="
            f"{report['aborted_at']} reason={report['reason']}")
        if report["ok"]:
            failures.append("slow deploy was not aborted")
        if report["rolled_back"] != [first.name]:
            failures.append(
                f"expected exactly {first.name} rolled back, got "
                f"{report['rolled_back']}")
        if not verdict.get("regressed"):
            failures.append("auto-rollback was not regression-triggered "
                            f"(verdict: {verdict})")
        else:
            pre = verdict["pre"]["latency_p99_s"] * 1e3
            post = verdict["post"]["latency_p99_s"] * 1e3
            lines.append(f"  gate: pre p99 {pre:.1f} ms -> post p99 "
                         f"{post:.1f} ms triggered rollback")
        if first.engine.pipeline is not v1 or first.version != "v1":
            failures.append("regressed worker was not rolled back to v1")
        for worker in workers[1:]:
            if worker.engine.pipeline is not v1:
                failures.append(
                    f"{worker.name} was touched by the aborted rollout")

        # Leg 4: instant rollback of the last healthy worker (its last
        # swap was v0 -> v1, so the revert lands on v0).
        last = workers[-1]
        rollback = await client.rollback(workers=[last.name])
        lines.append(f"rollback {last.name}: {rollback}")
        if rollback["reverted"] != [last.name] or last.engine.pipeline is not v0:
            failures.append("instant rollback did not restore v0")

        fleet = await client.fleet()
        totals = fleet["totals"]
        lines.append(f"fleet totals mid-run: {totals}")
        if totals["dropped"] != 0:
            failures.append(f"fleet dropped {totals['dropped']} packets")

        # Leg 5b: post-rollout scrape — counters monotone vs the
        # mid-rollout scrape, a hostile label value survives the wire,
        # and the deploy/settle/rollback spans reached /trace.
        get_registry().counter(
            "repro_bench_probe_total", "label-escaping probe",
            labels=("note",),
        ).labels(note='quote " slash \\ newline \n done').inc()
        try:
            scrape_end = parse_prometheus(await client.metrics())
        except Exception as exc:
            scrape_end = {}
            failures.append(f"post-rollout /metrics did not parse: {exc}")
        regressions = [
            name for (name, labels), value in scrape_mid.items()
            if name.endswith("_total")
            and value > scrape_end.get((name, labels), float("-inf"))
        ]
        if regressions:
            failures.append(
                f"counters moved backwards between scrapes: {regressions}")
        probe = [
            dict(labels)["note"] for (name, labels) in scrape_end
            if name == "repro_bench_probe_total"
        ]
        if probe != ['quote " slash \\ newline \n done']:
            failures.append(
                f"label escaping did not round-trip the wire: {probe!r}")
        trace_doc = await client.trace()
        span_names = {event["name"] for event in trace_doc["events"]}
        missing = {"control.deploy", "control.swap", "control.settle",
                   "control.rollback"} - span_names
        if missing:
            failures.append(f"spans missing from GET /trace: {sorted(missing)}")
        lines.append(
            f"post-rollout scrape: {len(scrape_end)} samples monotone, "
            f"{len(trace_doc['events'])} span events on /trace")
        obs_summary["scrape_samples"] = len(scrape_end)
        obs_summary["span_events"] = len(trace_doc["events"])
        obs_summary["deploy_ops"] = ops_mid

    dead = await serve_fleet(
        controller, lambda stop: loop_replay(packets, labels, RATE_PPS, stop),
        legs)
    for worker, error in dead:
        failures.append(f"{worker.name} died: {error}")

    lines.append("")
    worker_metrics = {}
    for worker in workers:
        stats = worker.engine.stats
        summary = stats.summary()
        lines.append(
            f"[{worker.name}] {summary['packets']} packets, "
            f"{summary['swaps']} swaps, {summary['dropped']} dropped, "
            f"p99 {summary['latency_p99_us'] / 1e3:.1f} ms "
            f"(final version {worker.version})")
        worker_metrics[worker.name] = {
            "packets": summary["packets"],
            "swaps": summary["swaps"],
            "dropped": summary["dropped"],
            "latency_p99_us": summary["latency_p99_us"],
            "final_version": worker.version,
        }
        if stats.enqueued != stats.packets + stats.dropped:
            failures.append(
                f"{worker.name}: counters not conserved "
                f"({stats.enqueued} != {stats.packets} + {stats.dropped})")
        if stats.dropped != 0:
            failures.append(f"{worker.name}: dropped {stats.dropped}")
        if stats.packets == 0:
            failures.append(f"{worker.name}: served no traffic")
    return worker_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet and trace (same correctness gates)")
    args = parser.parse_args(argv)

    lines = [
        "Control-plane benchmark — fleet rollout under live traffic",
        "-" * 74,
    ]
    failures: list = []
    obs_summary: dict = {}
    worker_metrics = asyncio.run(run_bench(args, lines, failures, obs_summary))

    verdict = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    lines += ["", verdict]
    text = "\n".join(lines)
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "control.txt")
    with open(out_path, "w") as handle:
        handle.write(text + "\n")
    json_path = write_json_result(
        "control",
        config={"smoke": args.smoke, "batch_size": BATCH_SIZE,
                "rate_pps": RATE_PPS, "slow_per_batch_s": SLOW_PER_BATCH_S},
        metrics={"verdict": verdict, "failures": failures,
                 "workers": worker_metrics, "observability": obs_summary},
    )
    print(f"(written to {out_path}; summary {json_path})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
