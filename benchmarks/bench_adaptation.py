#!/usr/bin/env python3
"""Closed-loop adaptation: drift-triggered retrain-and-redeploy.

Two legs over the reproducible traffic-shift scenario
(:mod:`repro.drift.scenario` — the botnet migrates its C2 channel into
benign-P2P territory, so the v0 model's decision boundary goes stale):

1. **recovery** — one worker serves the shifting stream with the full
   :class:`AdaptationLoop` attached.  The bench records serving accuracy
   over the capture window just before the shift, lets the loop confirm
   drift, retrain on captured traffic, and deploy through the regression
   gate, then measures how many post-swap batches it takes for window
   accuracy to climb back within ``RECOVERY_MARGIN`` (2%) of the
   pre-shift level.  Gates: exactly one deploy, recovery within
   ``RECOVERY_BATCH_BOUND`` post-swap batches, zero drops in block mode,
   and ``enqueued == packets + dropped`` on the worker.
2. **chaos bit-identity** — the loop's retrain stage run twice on the
   same captured snapshot: once clean (in-process launcher), once with
   ``REPRO_CHAOS_KILL`` killing a search worker mid-task (work-queue
   launcher, ``max_retries=2``).  The merged winner — algorithm, config,
   objective, and the rebuilt pipeline's predictions — must be
   bit-identical, i.e. a crash costs a retry, never the result.

Run:  PYTHONPATH=src python benchmarks/bench_adaptation.py [--smoke]

``--smoke`` shrinks the traces and search budget; every correctness
gate (recovery margin, conservation, zero drops, bit-identity) holds in
both modes, so CI runs it as a blocking job.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import tempfile

# Keep drift.* spans on and the trace sink under results/.
os.environ["REPRO_OBS"] = "1"
os.environ.setdefault("REPRO_OBS_DIR", os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "obs"))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_json_result  # noqa: E402

import numpy as np

from repro.control import FleetController, FleetWorker, start_workers, stop_workers
from repro.distrib.driver import run_sharded
from repro.distrib.launchers import InProcessLauncher, WorkQueueLauncher
from repro.distrib.worker import CHAOS_KILL_ENV
from repro.drift import AdaptationLoop, DriftMonitor, TrafficCapture, rebuild_winner
from repro.drift.scenario import (
    PHASE_PRE,
    PHASE_SHIFTED,
    adaptation_spec_factory,
    phase_trace,
    shifting_traffic,
    train_initial_pipeline,
)
from repro.netsim.features import PACKET_FEATURE_NAMES, packet_features
from repro.scenario import serving_extractor
from repro.serving import AsyncStreamEngine

SEED = 13
BATCH_SIZE = 64
RATE_PPS = 4000.0
SHIFT_AFTER_S = 1.5
#: Accuracy over this many newest captured rows is the "window accuracy"
#: the recovery gate compares — small enough to react within a few
#: batches, large enough to be statistically meaningful.
ACCURACY_WINDOW = 128
#: Post-swap window accuracy must come back within this much of the
#: pre-shift level (the issue's 2% recovery target).
RECOVERY_MARGIN = 0.02
#: ... and must do so within this many post-swap batches.
RECOVERY_BATCH_BOUND = 40
DEADLINE_S = 120.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


async def run_recovery_leg(args, lines: list, failures: list) -> dict:
    n_v0_train = 50 if args.smoke else 80
    n_trace_flows = 50 if args.smoke else 80
    budget = 2 if args.smoke else 3
    epochs = 8 if args.smoke else 10

    v0, _ = train_initial_pipeline(seed=SEED, n_train_flows=n_v0_train,
                                   n_test_flows=20)
    pre = phase_trace(n_trace_flows, PHASE_PRE, seed=SEED + 101)
    post = phase_trace(n_trace_flows, PHASE_SHIFTED, seed=SEED + 202)

    stop = asyncio.Event()
    capture = TrafficCapture(capacity=4096,
                             feature_names=PACKET_FEATURE_NAMES)
    engine = AsyncStreamEngine(
        v0, serving_extractor("ad"), batch_size=BATCH_SIZE,
        queue_depth=512, drop_policy="block", capture=capture,
    )
    worker = FleetWorker("w0", engine, version="v0")
    controller = FleetController([worker])
    monitor = DriftMonitor(window=192, min_window=64,
                           feature_names=PACKET_FEATURE_NAMES)
    loop = AdaptationLoop(
        controller, monitor,
        adaptation_spec_factory(budget=budget, seed=SEED,
                                train_epochs=epochs),
        shards=2, max_retries=1, check_interval_s=0.2,
    )

    pre_shift_accuracy = []

    def on_shift():
        # Serving accuracy the moment the distribution moves: the
        # baseline the retrained pipeline must recover to.
        acc = capture.accuracy(last=ACCURACY_WINDOW)
        pre_shift_accuracy.append(acc)

    start_workers([worker], lambda worker: shifting_traffic(
        stop, pre, post, rate=RATE_PPS, shift_after_s=SHIFT_AFTER_S,
        on_shift=on_shift))
    loop_task = asyncio.create_task(loop.run(stop))

    clock = asyncio.get_running_loop()
    deadline = clock.time() + DEADLINE_S
    batches_at_swap = None
    recovered_after = None
    target = None
    try:
        while clock.time() < deadline:
            if batches_at_swap is None and loop.deployed >= 1:
                batches_at_swap = engine.stats.summary()["batches"]
                base = pre_shift_accuracy[0] if pre_shift_accuracy else 1.0
                target = (base if base is not None else 1.0) - RECOVERY_MARGIN
            if batches_at_swap is not None:
                elapsed = engine.stats.summary()["batches"] - batches_at_swap
                acc = capture.accuracy(last=ACCURACY_WINDOW)
                if acc is not None and acc >= target:
                    recovered_after = elapsed
                    break
                if elapsed > RECOVERY_BATCH_BOUND:
                    break
            await asyncio.sleep(0.05)
    finally:
        for _, error in await stop_workers([worker], stop):
            failures.append(f"w0 died: {error}")
        await loop_task

    summary = engine.stats.summary()
    base = pre_shift_accuracy[0] if pre_shift_accuracy else None
    final_acc = capture.accuracy(last=ACCURACY_WINDOW)
    lines.append(
        f"pre-shift window accuracy {base if base is not None else 'n/a'}; "
        f"drift events {len(monitor.events)}, retrains {len(loop.events)} "
        f"({loop.deployed} deployed, {loop.rolled_back} rolled back, "
        f"{loop.failed} failed)")

    if loop.deployed != 1:
        failures.append(f"expected exactly 1 deploy, got {loop.deployed} "
                        f"(events: {[e.get('outcome') for e in loop.events]})")
    if worker.version != "adapt-1":
        failures.append(f"worker finished on {worker.version}, not adapt-1")
    if recovered_after is None:
        failures.append(
            f"window accuracy never recovered to within {RECOVERY_MARGIN:.0%}"
            f" of pre-shift ({base}) inside {RECOVERY_BATCH_BOUND} post-swap"
            f" batches (last seen {final_acc})")
    else:
        lines.append(
            f"recovered: window accuracy {final_acc:.3f} >= "
            f"{target:.3f} after {recovered_after} post-swap batches "
            f"(bound {RECOVERY_BATCH_BOUND})")
    if summary["dropped"] != 0:
        failures.append(f"dropped {summary['dropped']} packets in block mode")
    if summary["enqueued"] != summary["packets"] + summary["dropped"]:
        failures.append(
            f"counters not conserved ({summary['enqueued']} != "
            f"{summary['packets']} + {summary['dropped']})")
    lines.append(
        f"[w0] {summary['packets']} packets, {summary['dropped']} dropped, "
        f"{summary['swaps']} swaps, {summary['batches']} batches, "
        f"conservation {'ok' if summary['enqueued'] == summary['packets'] + summary['dropped'] else 'VIOLATED'}")
    return {
        "pre_shift_accuracy": base,
        "final_accuracy": final_acc,
        "recovered_after_batches": recovered_after,
        "deployed": loop.deployed,
        "packets": summary["packets"],
        "dropped": summary["dropped"],
        "swaps": summary["swaps"],
    }


def _retrain_once(launcher, shard_dir: str, budget: int, epochs: int,
                  max_retries: int):
    """The loop's retrain stage, run synchronously on a fixed shifted
    capture — the deterministic unit the bit-identity gate compares."""
    packets, labels = phase_trace(40, PHASE_SHIFTED, seed=SEED)
    capture = TrafficCapture(capacity=4096,
                             feature_names=PACKET_FEATURE_NAMES)
    capture.observe_batch([packet_features(p) for p in packets], labels,
                          [0] * len(packets),
                          times=[p.timestamp for p in packets])
    ref = capture.snapshot(os.path.join(shard_dir, "cap.npz"))
    spec = adaptation_spec_factory(budget=budget, seed=SEED,
                                   train_epochs=epochs)(ref)
    out = run_sharded(spec, shards=2, launcher=launcher,
                      shard_dir=os.path.join(shard_dir, "shards"),
                      max_retries=max_retries)
    pipeline, best = rebuild_winner(spec, out)
    return pipeline, best, out, ref


def run_chaos_leg(args, lines: list, failures: list) -> dict:
    budget = 2 if args.smoke else 3
    epochs = 6 if args.smoke else 8
    with tempfile.TemporaryDirectory(prefix="bench-adapt-") as tmp:
        clean_pipe, clean_best, _, ref = _retrain_once(
            InProcessLauncher(), os.path.join(tmp, "clean"),
            budget, epochs, max_retries=1)

        marker = os.path.join(tmp, "killed")
        os.environ[CHAOS_KILL_ENV] = f"unit-0000@{marker}"
        try:
            chaos_pipe, chaos_best, chaos_out, _ = _retrain_once(
                WorkQueueLauncher(drainers=2, mode="thread", timeout=300,
                                  stale_after=None),
                os.path.join(tmp, "chaos"), budget, epochs, max_retries=2)
        finally:
            del os.environ[CHAOS_KILL_ENV]

        if not os.path.exists(marker):
            failures.append("chaos kill never fired")
        ft = chaos_out.stats["fault_tolerance"]
        lines.append(
            f"chaos retrain: {ft['task_launches']} launches for "
            f"{ft['tasks']} tasks ({ft['retries']} retries)")

        identical = (
            chaos_best.algorithm == clean_best.algorithm
            and chaos_best.best_config == clean_best.best_config
            and chaos_best.objective == clean_best.objective
        )
        test_x = ref.materialize().test_x
        predictions_equal = bool(np.array_equal(
            clean_pipe.predict(test_x), chaos_pipe.predict(test_x)))
        if not identical:
            failures.append(
                f"chaos retrain diverged: {chaos_best.algorithm}/"
                f"{chaos_best.best_config}/{chaos_best.objective} vs clean "
                f"{clean_best.algorithm}/{clean_best.best_config}/"
                f"{clean_best.objective}")
        if not predictions_equal:
            failures.append("chaos-rebuilt pipeline predictions differ "
                            "from crash-free rebuild")
        if identical and predictions_equal:
            lines.append(
                f"bit-identity: winner {clean_best.algorithm} "
                f"objective {clean_best.objective:.4f}, predictions equal "
                f"on {len(test_x)} test rows")
        return {
            "identical_winner": identical,
            "predictions_equal": predictions_equal,
            "retries": ft["retries"],
            "task_launches": ft["task_launches"],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller traces and budget (same gates)")
    args = parser.parse_args(argv)

    lines = [
        "Adaptation benchmark — drift-triggered retrain-and-redeploy",
        "-" * 74,
    ]
    failures: list = []
    recovery = asyncio.run(run_recovery_leg(args, lines, failures))
    lines.append("")
    chaos = run_chaos_leg(args, lines, failures)

    verdict = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    lines += ["", verdict]
    text = "\n".join(lines)
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "adaptation.txt")
    with open(out_path, "w") as handle:
        handle.write(text + "\n")
    json_path = write_json_result(
        "adaptation",
        config={"smoke": args.smoke, "batch_size": BATCH_SIZE,
                "rate_pps": RATE_PPS, "shift_after_s": SHIFT_AFTER_S,
                "recovery_margin": RECOVERY_MARGIN,
                "recovery_batch_bound": RECOVERY_BATCH_BOUND},
        metrics={"verdict": verdict, "failures": failures,
                 "recovery": recovery, "chaos": chaos},
    )
    print(f"(written to {out_path}; summary {json_path})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
