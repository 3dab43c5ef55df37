#!/usr/bin/env python3
"""Closing the loop: drift-triggered retrain-and-redeploy.

``live_deployment.py`` ends with a *manual* hitless upgrade — an
operator decides a refresh is due and swaps it in.  This example
removes the operator.  A fleet serves a botnet detector while the
botnet **evolves to evade it**: mid-run, the Storm/Waledac C2 channels
migrate into benign-P2P territory (UDP, uTorrent's port block,
data-packet-sized payloads), and the v0 model's accuracy collapses
toward the benign base rate.

The :class:`~repro.drift.AdaptationLoop` notices and repairs this with
no human in the loop:

1. **detect** — windowed drift detectors (per-class prediction-rate
   shift; PSI + KS feature divergence) watch the serving stream through
   a ring-buffered :class:`~repro.drift.TrafficCapture`; hysteresis
   demands consecutive drifted windows before confirming, and a
   cooldown stops re-triggering while a repair is already underway.
2. **retrain** — the capture ring *is* the new training set: recent
   labeled traffic is snapshotted to a ``DatasetRef`` and handed to
   ``run_sharded`` — the same fault-tolerant distributed search used
   offline, so a crashed search worker costs a retry, not the result.
3. **redeploy** — the merged winner is registered and rolled out
   through the :class:`~repro.control.FleetController` behind its
   regression gate: a bad retrain rolls back automatically and the
   fleet keeps serving what it was serving.

Watch for: drift confirmed shortly after the shift, one retrain, a
gated swap to ``adapt-1``, window accuracy recovering to ~1.0 — and
zero dropped packets throughout (block-mode ingress).

Run:  PYTHONPATH=src python examples/adaptive_deployment.py
(see docs/adaptation.md for the detector math and the safety argument)
"""

import asyncio

from repro.control import ControlClient, FleetController, FleetWorker, serve_fleet
from repro.drift import AdaptationLoop, DriftMonitor, TrafficCapture
from repro.drift.scenario import (
    PHASE_PRE,
    PHASE_SHIFTED,
    adaptation_spec_factory,
    phase_trace,
    shifting_traffic,
    train_initial_pipeline,
)
from repro.netsim.features import PACKET_FEATURE_NAMES
from repro.scenario import serving_extractor
from repro.serving import AsyncStreamEngine

SEED = 13
RATE_PPS = 4000.0
SHIFT_AFTER_S = 2.0

# --- 1. the fleet before the storm ---------------------------------------- #
print("training v0 on pre-shift traffic...")
v0, v0_dataset = train_initial_pipeline(seed=SEED, n_train_flows=80,
                                        n_test_flows=20)
print(f"v0 compiled for Taurus: {v0.resources['cus']} CUs / "
      f"{v0.resources['mus']} MUs, trained on {v0_dataset.n_train} packets")

pre = phase_trace(80, PHASE_PRE, seed=SEED + 101)
post = phase_trace(80, PHASE_SHIFTED, seed=SEED + 202)
print(f"traces: {len(pre[0])} pre-shift packets, "
      f"{len(post[0])} shifted packets per lap")


async def main():
    # The capture ring taps the engine's record stage: every classified
    # packet lands here with its features, label, prediction, timestamp.
    # It is both the drift detectors' evidence and the retrain dataset.
    capture = TrafficCapture(capacity=4096,
                             feature_names=PACKET_FEATURE_NAMES)
    engine = AsyncStreamEngine(
        v0, serving_extractor("ad"), batch_size=64,
        queue_depth=512,        # shallow queue: the capture stays fresh
        drop_policy="block",    # lossless — the zero-drop gate is real
        capture=capture,
    )
    worker = FleetWorker("w0", engine, version="v0")
    monitor = DriftMonitor(window=192, min_window=64,
                           feature_names=PACKET_FEATURE_NAMES)
    loop = AdaptationLoop(
        FleetController([worker]), monitor,
        adaptation_spec_factory(budget=3, seed=SEED, train_epochs=10),
        shards=2, max_retries=1, check_interval_s=0.25,
    )

    def on_shift():
        acc = capture.accuracy(last=128)
        print(f">>> traffic shifted (botnet went evasive); serving "
              f"accuracy at the shift: {acc}")

    def traffic(stop):
        return shifting_traffic(stop, pre, post, rate=RATE_PPS,
                                shift_after_s=SHIFT_AFTER_S, on_shift=on_shift)

    remote = {}

    async def watch(port: int) -> None:
        print(f"control plane on :{port} (GET /adaptation for loop state)\n")
        clock = asyncio.get_running_loop()
        deadline = clock.time() + 150.0
        last_state = None
        while clock.time() < deadline:
            if loop.state_name != last_state:
                print(f"    loop state: {loop.state_name}")
                last_state = loop.state_name
            if loop.deployed >= 1:
                break
            await asyncio.sleep(0.1)
        # Let adapt-1 serve for a moment so the recovery shows in the window.
        await asyncio.sleep(1.0)
        remote.update(await ControlClient(port=port).adaptation())

    # Workers, adaptation loop and control server run until watch() ends.
    await serve_fleet(loop.controller, traffic, watch, adaptation=loop)
    return remote, worker, monitor


remote, worker, monitor = asyncio.run(main())

# --- 3. what the loop did -------------------------------------------------- #
print("\ntimeline:")
for drift in monitor.events:
    print(f"  drift confirmed ({drift['signal']}): "
          + "; ".join(drift["reasons"]))
for event in remote["events"]:
    took = event["t_done"] - event["t_start"]
    retrain = event.get("retrain", {})
    print(f"  {event['version']}: {event['outcome']} in {took:.1f}s "
          f"(retrained on {retrain.get('rows', '?')} captured rows, "
          f"winner {retrain.get('algorithm', '?')})")

summary = worker.engine.stats.summary()
recovered = worker.engine.capture.accuracy(last=128)
conserved = summary["enqueued"] == summary["packets"] + summary["dropped"]
print(f"\nfleet after adaptation: {worker.name} serving {worker.version}")
print(f"  {summary['packets']} packets, {summary['dropped']} dropped, "
      f"{summary['swaps']} swap(s), conservation "
      f"{'ok' if conserved else 'VIOLATED'}")
print(f"  window accuracy now: {recovered}")
print(
    "\nno operator touched anything: the same search that generated v0 "
    "regenerated it from captured traffic, and the gate would have rolled "
    "back a bad retrain automatically."
)
