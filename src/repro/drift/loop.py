"""The adaptation loop: confirmed drift -> retrain -> gated redeploy.

This is the closed loop the paper's pitch implies but never runs:
Homunculus *auto*-generates a pipeline, so when the traffic walks away
from the training snapshot the system should re-generate itself.  The
three planes already exist; :class:`AdaptationLoop` is the conductor:

1. **detect** — every ``check_interval_s`` it pools the fleet's
   :class:`~repro.drift.capture.TrafficCapture` windows and asks the
   :class:`~repro.drift.detectors.DriftMonitor` for a verdict (raw
   verdicts are folded through hysteresis inside the monitor),
2. **retrain** — on a *confirmed* event it snapshots the captured
   traffic to a :class:`~repro.distrib.runspec.DatasetRef` npz, builds a
   :class:`~repro.distrib.runspec.RunSpec` via the caller's
   ``spec_factory``, and runs the fault-tolerant distributed search
   (:func:`~repro.distrib.driver.run_sharded`, with ``max_retries`` —
   a worker crash mid-retrain costs a retry, not the rollout) on an
   executor thread so serving traffic never stops,
3. **redeploy** — the winner's pipeline, which the merge step built
   once under the serial rebuild rule, is registered with the
   :class:`~repro.control.controller.FleetController` and rolled out
   through the existing
   :class:`~repro.control.telemetry.RegressionGate` — a retrain that
   serves worse than what it replaces is rolled back automatically, and
   the loop keeps the old reference so it can try again.

Safety argument, in one line: nothing the loop produces touches the
packet path until ``run_sharded`` has fully merged (a failed or partial
retrain raises before ``register_pipeline``), and nothing it deploys
sticks unless the per-worker gate judged the post-swap window healthy.

State is exposed as JSON (:meth:`AdaptationLoop.state`) and served at
``GET /adaptation``; ``drift.*`` spans and the
``repro_drift_events_total`` / ``repro_retrains_total`` counters ride
the ``repro.obs`` plane.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from functools import partial

import numpy as np

from repro.distrib.driver import run_sharded
from repro.distrib.runspec import DatasetRef, RunSpec
from repro.drift.capture import captured_dataset
from repro.errors import AdaptationError, DistributionError, HomunculusError
from repro.fsio import jsonable
from repro.obs.registry import get_registry
from repro.obs.trace import get_tracer

__all__ = ["AdaptationLoop", "rebuild_winner"]

#: Loop states, in the order a healthy adaptation traverses them.
LOOP_STATES = ("warming", "monitoring", "retraining", "deploying", "cooldown")


def rebuild_winner(spec: RunSpec, report, model_index: int = 0):
    """The merged winner of ``spec.models[model_index]`` as a servable pipeline.

    ``report`` is the :func:`run_sharded` output (or its
    :class:`~repro.core.reports.CompileReport`).  The merge step already
    trained and lowered the winner under the serial rebuild rule, so the
    deployed pipeline is the one the distributed report scored — nothing
    is retrained here.  Returns ``(pipeline, best)``.
    """
    compile_report = getattr(report, "report", report)
    best = compile_report.models.get(spec.models[model_index].name)
    if best is None or best.pipeline is None or not compile_report.feasible:
        raise AdaptationError(
            "retrain produced no feasible pipeline to deploy"
        )
    return best.pipeline, best


class AdaptationLoop:
    """Close serving -> search -> deploy over one fleet.

    Example::

        monitor = DriftMonitor(window=256, feature_names=names)
        loop = AdaptationLoop(controller, monitor, spec_factory,
                              shards=2, max_retries=1)
        task = asyncio.create_task(loop.run(stop_event))

    Parameters
    ----------
    controller:
        the :class:`FleetController`; every worker engine that carries a
        ``capture`` contributes windows (at least one must).
    monitor:
        a :class:`DriftMonitor`.  The loop calibrates it from live
        traffic once ``min_window`` labeled rows exist, and recalibrates
        after every successful adaptation so the *new* pipeline's
        behaviour becomes the reference.
    spec_factory:
        ``(DatasetRef) -> RunSpec`` — how to search over captured
        traffic.  Budget, algorithms, and the seed all live here, which
        keeps the retrain deterministic and testable.
    shards / launcher / max_retries:
        forwarded to :func:`run_sharded` (the fault-tolerance contract
        included: a crashed retrain worker is retried, and the merged
        result is bit-identical to a crash-free run).
    capture_dir:
        where dataset snapshots and shard scratch live (default: a
        fresh temp dir).
    check_interval_s:
        detector cadence.
    recalibrate_after_s:
        how long after a successful deploy to wait before freezing the
        new reference window (lets post-swap predictions fill the ring).
    gate:
        optional :class:`RegressionGate` override for adaptation
        deploys (default: the controller's own gate).
    max_adaptations:
        stop adapting after this many successful deploys (None = no
        limit) — benchmarks use it to bound a run.
    """

    def __init__(
        self,
        controller,
        monitor,
        spec_factory,
        *,
        shards: int = 2,
        launcher=None,
        max_retries: int = 1,
        capture_dir: "str | None" = None,
        check_interval_s: float = 0.5,
        recalibrate_after_s: float = 1.0,
        version_prefix: str = "adapt",
        gate=None,
        max_adaptations: "int | None" = None,
    ) -> None:
        if shards < 1:
            raise AdaptationError(f"shards must be >= 1, got {shards}")
        if max_retries < 0:
            raise AdaptationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if check_interval_s <= 0 or recalibrate_after_s < 0:
            raise AdaptationError(
                "check_interval_s must be > 0 and recalibrate_after_s >= 0"
            )
        if not callable(spec_factory):
            raise AdaptationError("spec_factory must be callable")
        self.controller = controller
        self.monitor = monitor
        self.spec_factory = spec_factory
        self.shards = int(shards)
        self.launcher = launcher
        self.max_retries = int(max_retries)
        self.capture_dir = capture_dir
        self.check_interval_s = float(check_interval_s)
        self.recalibrate_after_s = float(recalibrate_after_s)
        self.version_prefix = str(version_prefix)
        self.gate = gate
        self.max_adaptations = max_adaptations
        self.state_name = "warming"
        self.deployed = 0
        self.rolled_back = 0
        self.failed = 0
        self.events: list = []
        self._version_counter = 0
        self._recalibrate_at: "float | None" = None
        if not self.captures():
            raise AdaptationError(
                "no worker engine carries a TrafficCapture; pass "
                "AsyncStreamEngine(capture=...) when building the fleet"
            )

    # -- capture plumbing ------------------------------------------------
    def captures(self) -> list:
        """Every capture ring attached to a fleet engine."""
        return [
            worker.engine.capture
            for worker in self.controller.workers.values()
            if getattr(worker.engine, "capture", None) is not None
        ]

    def pooled_window(self) -> dict:
        """Fleet-wide detector window: captures pooled chronologically."""
        windows = [
            c.window(last=self.monitor.window)
            for c in self.captures() if len(c)
        ]
        if not windows:
            empty = np.empty((0,))
            return {"times": empty, "rows": np.empty((0, 0)),
                    "labels": empty.astype(int),
                    "predictions": empty.astype(int)}
        times = np.concatenate([w["times"] for w in windows])
        rows = np.concatenate([w["rows"] for w in windows])
        labels = np.concatenate([w["labels"] for w in windows])
        predictions = np.concatenate([w["predictions"] for w in windows])
        order = np.argsort(times, kind="stable")
        tail = order[-self.monitor.window:]
        return {"times": times[tail], "rows": rows[tail],
                "labels": labels[tail], "predictions": predictions[tail]}

    # -- the loop --------------------------------------------------------
    async def run(self, stop: "asyncio.Event") -> None:
        """Drive ticks until ``stop`` is set (the fleet's lifetime)."""
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), self.check_interval_s)
                return
            except asyncio.TimeoutError:
                pass
            await self.tick()

    async def tick(self) -> dict:
        """One detector cadence step; adapt when drift is confirmed."""
        now = time.monotonic()
        window = self.pooled_window()
        n = int(window["labels"].size)
        if not self.monitor.calibrated:
            if n >= self.monitor.min_window:
                self.monitor.calibrate(window["rows"],
                                       window["predictions"], t=now)
                self.state_name = "monitoring"
                return {"state": self.state_name, "calibrated": True}
            self.state_name = "warming"
            return {"state": self.state_name, "rows": n}
        if self._recalibrate_at is not None:
            if now < self._recalibrate_at:
                return {"state": self.state_name, "cooling": True}
            if n >= self.monitor.min_window:
                self.monitor.calibrate(window["rows"],
                                       window["predictions"], t=now)
                self._recalibrate_at = None
                self.state_name = "monitoring"
                return {"state": self.state_name, "recalibrated": True}
            return {"state": self.state_name, "rows": n}
        if (self.max_adaptations is not None
                and self.deployed >= self.max_adaptations):
            return {"state": self.state_name, "capped": True}
        with get_tracer().span("drift.detect", rows=n):
            verdict = self.monitor.check(window["rows"],
                                         window["predictions"], t=now)
        if verdict["confirmed"]:
            return await self.adapt(verdict)
        return {"state": self.state_name, "verdict": verdict}

    async def adapt(self, verdict: "dict | None" = None) -> dict:
        """Retrain on captured traffic and roll the winner out, gated."""
        self._version_counter += 1
        version = f"{self.version_prefix}-{self._version_counter}"
        tracer = get_tracer()
        event = {
            "version": version,
            "trigger": jsonable((verdict or {}).get("reasons", [])),
            "t_start": time.monotonic(),
        }
        if self.capture_dir is None:
            self.capture_dir = tempfile.mkdtemp(prefix="repro-adapt-")
        try:
            self.state_name = "retraining"
            loop = asyncio.get_running_loop()
            with tracer.span("drift.retrain", version=version):
                dataset = captured_dataset(
                    self.captures(), name=f"captured-{version}"
                )
                ref = DatasetRef.snapshot(
                    dataset,
                    os.path.join(self.capture_dir, f"{version}.npz"),
                )
                spec = self.spec_factory(ref)
                if not isinstance(spec, RunSpec):
                    raise AdaptationError(
                        f"spec_factory must return a RunSpec, got "
                        f"{type(spec).__name__}"
                    )
                out = await loop.run_in_executor(None, partial(
                    run_sharded, spec,
                    shards=self.shards,
                    launcher=self.launcher,
                    shard_dir=os.path.join(self.capture_dir,
                                           f"{version}-shards"),
                    max_retries=self.max_retries,
                ))
                pipeline, best = rebuild_winner(spec, out)
            event["retrain"] = {
                "rows": int(dataset.n_train + dataset.n_test),
                "budget": spec.budget,
                "algorithm": best.algorithm,
                "best_config": jsonable(best.best_config),
                "fault_tolerance": jsonable(
                    getattr(out, "stats", {}).get("fault_tolerance", {})
                ),
            }
            # Only a fully-merged winner ever reaches the registry: a
            # failed or partial retrain raised before this line, so the
            # fleet cannot be asked to serve a partially-merged pipeline.
            self.controller.register_pipeline(version, pipeline)
            self.state_name = "deploying"
            with tracer.span("drift.deploy", version=version):
                report = await self.controller.deploy(version, gate=self.gate)
            event["deploy"] = {
                "ok": report["ok"],
                "upgraded": list(report["upgraded"]),
                "rolled_back": list(report["rolled_back"]),
                "reason": report["reason"],
            }
            outcome = "deployed" if report["ok"] else "rolled-back"
        except (AdaptationError, DistributionError, HomunculusError) as exc:
            outcome = "failed"
            event["error"] = str(exc)
        event["outcome"] = outcome
        event["t_done"] = time.monotonic()
        self.events.append(event)
        get_registry().counter(
            "repro_retrains_total",
            help="adaptation retrains by outcome",
            labels=("outcome",),
        ).labels(outcome=outcome).inc()
        if outcome == "deployed":
            self.deployed += 1
            # The fleet now serves the retrained pipeline; wait for its
            # predictions to fill the rings, then freeze them as the new
            # reference.
            self._recalibrate_at = (time.monotonic()
                                    + self.recalibrate_after_s)
            self.state_name = "cooldown"
        else:
            if outcome == "rolled-back":
                self.rolled_back += 1
            else:
                self.failed += 1
            # Keep the old reference: the drift is still real, and the
            # hysteresis cooldown paces the next attempt.
            self.state_name = "monitoring"
        return {"state": self.state_name, "adapted": event}

    # -- introspection ---------------------------------------------------
    def state(self) -> dict:
        """JSON document served at ``GET /adaptation``."""
        return jsonable({
            "state": self.state_name,
            "deployed": self.deployed,
            "rolled_back": self.rolled_back,
            "failed": self.failed,
            "retrains": self._version_counter,
            "monitor": self.monitor.state(),
            "captures": [c.counters() for c in self.captures()],
            "events": self.events[-16:],
            "config": {
                "shards": self.shards,
                "max_retries": self.max_retries,
                "check_interval_s": self.check_interval_s,
                "recalibrate_after_s": self.recalibrate_after_s,
                "version_prefix": self.version_prefix,
                "max_adaptations": self.max_adaptations,
            },
        }, default=str)
