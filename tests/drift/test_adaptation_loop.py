"""The closed loop: drift -> retrain -> gated redeploy, plus chaos.

The end-to-end test runs the whole machine on the shift scenario; the
chaos tests pin the fault-tolerance contract the loop inherits from
``run_sharded`` (a killed retrain worker costs a retry, not the result
— bit-identically) and the safety property that a failed retrain never
registers, let alone serves, a partial pipeline.
"""

import asyncio

import numpy as np
import pytest

from repro.control import ControlClient, ControlServer, FleetController, FleetWorker
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
from repro.errors import AdaptationError
from repro.netsim.features import PACKET_FEATURE_NAMES, packet_features
from repro.netsim.packet import Packet
from repro.runtime import PacketFeatureExtractor
from repro.serving import AsyncStreamEngine

SEED = 13


def _shifted_capture(n_flows=40, capacity=4096, seed=SEED):
    """A capture ring pre-filled with shifted-phase traffic (as if the
    engine had been serving it)."""
    packets, labels = phase_trace(n_flows, PHASE_SHIFTED, seed=seed)
    capture = TrafficCapture(capacity=capacity,
                             feature_names=PACKET_FEATURE_NAMES)
    rows = [packet_features(p) for p in packets]
    times = [p.timestamp for p in packets]
    capture.observe_batch(rows, labels, [0] * len(rows), times=times)
    return capture


def _retrain_directly(launcher, shard_dir, max_retries=1):
    """The loop's retrain stage, run synchronously: capture -> dataset
    -> snapshot -> run_sharded -> rebuild."""
    capture = _shifted_capture()
    ref = capture.snapshot(f"{shard_dir}/cap.npz")
    spec = adaptation_spec_factory(budget=2, seed=SEED, train_epochs=6)(ref)
    out = run_sharded(spec, shards=2, launcher=launcher,
                      shard_dir=f"{shard_dir}/shards",
                      max_retries=max_retries)
    pipeline, best = rebuild_winner(spec, out)
    return pipeline, best, out, ref


class TestClosedLoop:
    def test_end_to_end_drift_retrain_redeploy(self):
        """Traffic shifts mid-run; the loop must confirm drift, retrain
        on captured traffic, deploy through the gate, and the fleet must
        end up serving the retrained version with zero drops and the
        conservation invariant intact.  Version transitions are sampled
        continuously: the worker may only ever serve v0 or the fully
        merged adapt-1."""
        v0, _ = train_initial_pipeline(seed=SEED, n_train_flows=60,
                                       n_test_flows=20)
        pre = phase_trace(50, PHASE_PRE, seed=SEED + 101)
        post = phase_trace(50, PHASE_SHIFTED, seed=SEED + 202)

        async def run():
            stop = asyncio.Event()
            capture = TrafficCapture(capacity=4096,
                                     feature_names=PACKET_FEATURE_NAMES)
            engine = AsyncStreamEngine(
                v0, PacketFeatureExtractor(), batch_size=64,
                queue_depth=512, drop_policy="block", capture=capture,
            )
            worker = FleetWorker("w0", engine, version="v0")
            controller = FleetController([worker])
            monitor = DriftMonitor(window=192, min_window=64,
                                   feature_names=PACKET_FEATURE_NAMES)
            loop = AdaptationLoop(
                controller, monitor,
                adaptation_spec_factory(budget=2, seed=SEED,
                                        train_epochs=8),
                shards=2, max_retries=1, check_interval_s=0.2,
            )
            worker.attach(asyncio.create_task(engine.run(
                shifting_traffic(stop, pre, post, rate=4000.0,
                                 shift_after_s=1.0))))
            loop_task = asyncio.create_task(loop.run(stop))
            server = ControlServer(controller, port=0, adaptation=loop)
            port = await server.start()

            versions_seen = []
            clock = asyncio.get_running_loop()
            deadline = clock.time() + 90.0
            while clock.time() < deadline:
                if worker.version != (versions_seen[-1] if versions_seen
                                      else None):
                    versions_seen.append(worker.version)
                if loop.deployed >= 1:
                    break
                await asyncio.sleep(0.05)
            # Let the retrained pipeline serve a moment, then stop.
            await asyncio.sleep(0.8)
            versions_seen.append(worker.version)
            remote = await ControlClient(port=port).adaptation()
            stop.set()
            await asyncio.gather(worker.task, return_exceptions=True)
            await loop_task
            await server.stop()
            return worker, loop, versions_seen, remote

        worker, loop, versions_seen, remote = asyncio.run(run())

        assert loop.deployed == 1
        assert loop.events[-1]["outcome"] == "deployed"
        # Single monotonic transition: v0 -> adapt-1, nothing else ever
        # served (a partially-merged pipeline would show as another
        # version or an exception).
        deduped = [v for i, v in enumerate(versions_seen)
                   if i == 0 or v != versions_seen[i - 1]]
        assert deduped == ["v0", "adapt-1"]

        summary = worker.engine.stats.summary()
        assert summary["dropped"] == 0
        assert summary["enqueued"] == summary["packets"] + summary["dropped"]
        # The retrained pipeline classifies the shifted traffic it is
        # now serving (post-swap rows only).
        accuracy = worker.engine.capture.accuracy(last=128)
        assert accuracy is not None and accuracy >= 0.9

        # The control surface serves the loop's state.
        assert remote["state"] in ("cooldown", "monitoring")
        assert remote["deployed"] == 1
        assert remote["events"][-1]["version"] == "adapt-1"


class TestChaosRetrain:
    def test_killed_worker_converges_bit_identically(self, tmp_path,
                                                     monkeypatch):
        """A worker crash mid-retrain is retried (``max_retries``) and
        the merged result — config, objective, and the rebuilt
        pipeline's predictions — is bit-identical to a crash-free run."""
        clean_pipe, clean_best, clean_out, ref = _retrain_directly(
            InProcessLauncher(), str(tmp_path / "clean"))

        marker = tmp_path / "killed"
        monkeypatch.setenv(CHAOS_KILL_ENV, f"unit-0000@{marker}")
        chaos_pipe, chaos_best, chaos_out, _ = _retrain_directly(
            WorkQueueLauncher(drainers=2, mode="thread", timeout=300,
                              stale_after=None),
            str(tmp_path / "chaos"), max_retries=2)
        monkeypatch.delenv(CHAOS_KILL_ENV)

        assert marker.exists(), "chaos kill never fired"
        ft = chaos_out.stats["fault_tolerance"]
        assert ft["task_launches"] > ft["tasks"] or ft["retries"] >= 0

        assert chaos_best.algorithm == clean_best.algorithm
        assert chaos_best.best_config == clean_best.best_config
        assert chaos_best.objective == clean_best.objective

        test_x = ref.materialize().test_x
        assert np.array_equal(clean_pipe.predict(test_x),
                              chaos_pipe.predict(test_x))

    def test_failed_retrain_registers_nothing(self, tmp_path, monkeypatch):
        """When the retrain dies with retries exhausted, the loop records
        a failed event and the fleet keeps serving what it was serving —
        no version is registered, nothing is swapped."""
        v0, _ = train_initial_pipeline(seed=SEED, n_train_flows=40,
                                       n_test_flows=10)
        engine = AsyncStreamEngine(v0, PacketFeatureExtractor(),
                                   capture=_shifted_capture())
        worker = FleetWorker("w0", engine, version="v0")
        controller = FleetController([worker])
        monitor = DriftMonitor(window=192, min_window=64)
        loop = AdaptationLoop(
            controller, monitor,
            adaptation_spec_factory(budget=2, seed=SEED, train_epochs=6),
            shards=1, max_retries=0,
            launcher=WorkQueueLauncher(drainers=1, mode="thread",
                                       timeout=120, stale_after=None),
            capture_dir=str(tmp_path),
        )
        # No marker path: the directive matches every attempt, so the
        # task fails permanently and retries exhaust.
        monkeypatch.setenv(CHAOS_KILL_ENV, "unit-0000")
        outcome = asyncio.run(loop.adapt())
        monkeypatch.delenv(CHAOS_KILL_ENV)

        assert loop.failed == 1 and loop.deployed == 0
        assert loop.events[-1]["outcome"] == "failed"
        assert outcome["state"] == "monitoring"
        assert "adapt-1" not in controller.pipelines
        assert worker.version == "v0"
        assert engine.pipeline is v0


def test_shifting_traffic_paces_a_phase_shorter_than_a_chunk():
    # 5-packet phases at 2,000 pkt/s (chunks of 20): the pacing count
    # must carry across laps and the switch, or no lap ever sleeps.
    phase = ([Packet(float(i), 100, 1, 2, 3, 4) for i in range(5)], [0] * 5)
    rate, cap = 2000.0, 20_000

    async def count():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.call_later(0.25, stop.set)
        started = loop.time()
        sent = 0
        async for _ in shifting_traffic(stop, phase, phase, rate=rate,
                                        shift_after_s=0.1):
            sent += 1
            if sent >= cap:  # an unpaced generator never sees ``stop``
                break
        return sent, loop.time() - started

    sent, elapsed = asyncio.run(count())
    assert sent <= 2 * rate * elapsed


class TestLoopValidation:
    def test_loop_requires_a_capture(self):
        v0, _ = train_initial_pipeline(seed=SEED, n_train_flows=40,
                                       n_test_flows=10)
        engine = AsyncStreamEngine(v0, PacketFeatureExtractor())
        controller = FleetController([FleetWorker("w0", engine)])
        with pytest.raises(AdaptationError):
            AdaptationLoop(controller, DriftMonitor(),
                           adaptation_spec_factory())

    def test_knobs_validated(self):
        v0, _ = train_initial_pipeline(seed=SEED, n_train_flows=40,
                                       n_test_flows=10)
        engine = AsyncStreamEngine(v0, PacketFeatureExtractor(),
                                   capture=TrafficCapture())
        controller = FleetController([FleetWorker("w0", engine)])
        monitor = DriftMonitor()
        factory = adaptation_spec_factory()
        with pytest.raises(AdaptationError):
            AdaptationLoop(controller, monitor, factory, shards=0)
        with pytest.raises(AdaptationError):
            AdaptationLoop(controller, monitor, factory, max_retries=-1)
        with pytest.raises(AdaptationError):
            AdaptationLoop(controller, monitor, factory,
                           check_interval_s=0.0)
        with pytest.raises(AdaptationError):
            AdaptationLoop(controller, monitor, "not-callable")
