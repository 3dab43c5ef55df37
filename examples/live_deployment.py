#!/usr/bin/env python3
"""Deploying a generated pipeline against live traffic.

The compiler's output is a data-plane program; this example shows what
happens *after* `generate()`: a botnet detector runs per-packet over an
interleaved stream of P2P flows through the **async serving runtime** —
feature extraction, deadline micro-batching, inference, and recording
run as pipelined stages over bounded queues, with conversation state
(partial flowmarkers) maintained switch-register-style and latency /
throughput / drop telemetry reported to the operator.

The finale is a **hitless upgrade**: a retrained v2 detector is
compare-and-swapped into the engine mid-stream (the switch-agent
table-rewrite story) — zero packets dropped, the swap landing on a
micro-batch boundary.  See docs/serving.md for the semantics.

Run:  python examples/live_deployment.py
"""

import repro
from repro.alchemy import DataLoader, Model, Platforms
from repro.core.export import export_report
from repro.datasets import load_botnet
from repro.runtime import FlowmarkerTracker
from repro.scenario import TRACE_SEED_OFFSET, botnet_trace
from repro.serving import AsyncStreamEngine

SEED = 0


# --- 1. compile the detector (training on full-flow markers) -------------- #
@DataLoader
def bd_loader():
    return load_botnet(n_train_flows=300, n_test_flows=100, seed=SEED + 13)


spec = Model(
    {
        "optimization_metric": ["f1"],
        "algorithm": ["dnn"],
        "name": "botnet_detector",
        "data_loader": bd_loader,
    }
)
platform = Platforms.Taurus().constrain(
    performance={"throughput": 1, "latency": 500},
    resources={"rows": 16, "cols": 16},
)
platform.schedule(spec)
report = repro.generate(platform, budget=10, seed=SEED)
best = report.best
print(report.summary())

# --- 2. export the deployment bundle --------------------------------------- #
import tempfile

bundle_dir = tempfile.mkdtemp(prefix="homunculus_deploy_")
bundle = export_report(report, bundle_dir)
print(f"\ndeployment bundle written to {bundle}")

# --- 3. run it against a live stream --------------------------------------- #
# Serve the winning pipeline the compile built and stream fresh traffic
# through it, interleaved by timestamp like a real capture.
pipeline = best.pipeline

N_FLOWS = 200
packets, labels = botnet_trace(N_FLOWS, seed=SEED + TRACE_SEED_OFFSET)

tracker = FlowmarkerTracker(max_conversations=1024)
engine = AsyncStreamEngine(
    pipeline,
    tracker,
    batch_size=256,
    max_latency=2e-3,      # flush partial batches after 2 ms
    queue_depth=1024,      # switch-style fixed-depth stage FIFOs
    drop_policy="block",   # lossless: bit-identical to the sync processor
    infer_workers=2,
)
engine.process(packets, labels)

stats = engine.stats
summary = stats.summary()
print(f"\nstreamed {stats.packets} packets across {N_FLOWS} flows "
      f"at {summary['throughput_pps']:.0f} pkt/s")
print(f"online per-packet accuracy: {stats.accuracy:.3f}")
print(f"flagged-malicious rate:     {stats.positive_rate():.3f}")
print(f"conversations tracked:      {len(tracker)} (evictions: {tracker.evictions})")
print(f"micro-batches:              {summary['batches']} "
      f"(mean {summary['mean_batch']:.1f} rows, "
      f"{summary['deadline_flushes']} deadline flushes)")
print(f"serving latency (us):       p50 {summary['latency_p50_us']:.0f} / "
      f"p95 {summary['latency_p95_us']:.0f} / p99 {summary['latency_p99_us']:.0f}")
print(f"queue depth / drops:        {summary['queue_max_depth']} / "
      f"{summary['dropped']}")
tp = stats.confusion.get((1, 1), 0)
fn = stats.confusion.get((1, 0), 0)
fp = stats.confusion.get((0, 1), 0)
recall = tp / (tp + fn) if tp + fn else 0.0
precision = tp / (tp + fp) if tp + fp else 0.0
print(f"per-packet precision/recall: {precision:.3f} / {recall:.3f}")
print(
    f"\nevery verdict took {pipeline.performance.latency_ns:.0f} ns of pipeline "
    "latency — the reaction-time win over flow-complete detection."
)

# --- 4. hitless upgrade: swap in a retrained v2 mid-stream ----------------- #
# Retrain with a different seed (a model refresh on newer data, say) and
# compare-and-swap it into the live engine between micro-batches.
import asyncio

from repro.backends.taurus import TaurusBackend
from repro.core.evaluator import ModelEvaluator
from repro.rng import derive
from repro.serving import replay

v2_evaluator = ModelEvaluator(
    spec,
    bd_loader.load("botnet_detector"),
    best.algorithm,
    TaurusBackend(),
    report.constraints,
    seed=int(derive(SEED + 1, 0).integers(0, 2**31)),
)
_, pipeline_v2, _ = v2_evaluator.rebuild(best.best_config)

upgrade_engine = AsyncStreamEngine(
    pipeline,
    FlowmarkerTracker(max_conversations=1024),
    batch_size=256,
    drop_policy="block",
    infer_workers=2,
)


async def serve_with_upgrade():
    half = len(packets) // 2

    async def source():
        count = 0
        async for item in replay(packets, labels):
            yield item
            count += 1
            if count == half:
                old = upgrade_engine.swap_pipeline(pipeline_v2, expected=pipeline)
                assert old is pipeline

    return await upgrade_engine.run(source())


upgraded_preds = asyncio.run(serve_with_upgrade())
up_stats = upgrade_engine.stats
print(
    f"\nhitless upgrade: swapped v1 -> v2 mid-stream after "
    f"~{len(packets) // 2} packets"
)
print(
    f"  served {up_stats.packets}/{len(packets)} packets, "
    f"{up_stats.dropped} dropped, {up_stats.swaps} swap "
    f"(generation {upgrade_engine.pipeline_generation})"
)
print(
    "  traffic never stopped: the swap landed between micro-batches, "
    "like a switch-agent table rewrite."
)
