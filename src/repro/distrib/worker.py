"""Shard execution: run a slice of a search and report it as JSON.

One :class:`~repro.distrib.scheduler.ShardSpec` in, one
:class:`ShardResult` out.  The worker rebuilds the platform from the
:class:`~repro.distrib.runspec.RunSpec`, runs each work unit through the
*same* family-search routine the serial compiler uses (seeded by
indices, so trajectories are machine-independent), and serializes the
evaluation histories, per-unit Pareto fronts, and cache-spill
locations for the driver to merge.

Runs in three modes:

* **library** — :func:`run_shard` called in-process (the test launcher),
* **subprocess** — ``python -m repro.distrib.worker --task t.json --out
  r.json`` (one shard per process, the real local backend),
* **drain** — ``python -m repro.distrib.worker --drain <queue-dir>``:
  claim-run-complete against a shared work-queue directory until it is
  empty; point any number of machines at the same directory,
* **reap** — ``python -m repro.distrib.worker --reap <queue-dir>
  --stale-after 30``: requeue claims whose heartbeat has stopped.  The
  driver runs its own :class:`~repro.distrib.launchers.ReaperThread`,
  but a fleet whose drainers are all external machines loses that
  thread the moment the driver host dies — a standalone reaper on any
  surviving machine keeps orphaned claims from stranding the queue.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.alchemy.platforms import PlatformSpec
from repro.bayesopt.results import Evaluation, OptimizationResult
from repro.bayesopt.scalarization import pareto_front
from repro.core.compiler import _search_one_family
from repro.core.pareto import PRIMARY_RESOURCE
from repro.fsio import atomic_write_json
from repro.obs import flush_obs
from repro.obs.registry import MetricsRegistry, enabled as obs_enabled
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer

from repro.distrib.queuedir import WorkQueue, worker_id
from repro.distrib.runspec import RunSpec
from repro.distrib.scheduler import ShardSpec, unit_family_seed, unit_model_seed

__all__ = ["UnitResult", "ShardResult", "run_shard", "reap", "main"]


# --------------------------------------------------------------------------- #
# crash injection (tests and the chaos benchmark only)
# --------------------------------------------------------------------------- #
#: Env vars carrying a ``<task-name>@<marker-path>`` chaos directive.
#: When a worker is about to run the named task and the marker file does
#: not exist yet, it creates the marker and crashes — hard exit for
#: ``KILL`` (simulating SIGKILL between claim and complete: the claim
#: stays orphaned), an exception for ``FAIL`` (a recorded ``failed/``
#: entry).  Creating the marker first makes the crash fire exactly once,
#: so the reaper's requeue or the driver's retry of the same logical
#: task succeeds.  Marker creation is ``O_EXCL``: racing workers elect
#: one victim.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"
CHAOS_FAIL_ENV = "REPRO_CHAOS_FAIL"


def maybe_inject_chaos(name: "str | None", allow_kill: bool = False) -> None:
    """Crash if a chaos directive targets task ``name`` (test-only hook).

    ``allow_kill`` guards the hard-exit path: only dedicated worker
    processes (``python -m repro.distrib.worker``) may honour a KILL
    directive — in-process callers (thread drainers, the in-process
    launcher, tests calling :func:`drain` directly) would take the
    driver down with them, so for them KILL degrades to an exception.
    """
    for env, hard in ((CHAOS_KILL_ENV, True), (CHAOS_FAIL_ENV, False)):
        directive = os.environ.get(env)
        if not directive or name is None:
            continue
        target, _, marker = directive.partition("@")
        # A target without an attempt suffix matches every attempt of
        # the task (how tests model a permanently failing unit).
        if name != target and name.rsplit(".a", 1)[0] != target:
            continue
        if marker:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
            except FileExistsError:
                continue  # already fired once
        if hard and allow_kill:
            os._exit(137)
        raise RuntimeError(f"chaos: injected {'kill' if hard else 'failure'} "
                           f"for task {name!r}")


class ClaimHeartbeat:
    """Touch a work-queue claim every ``interval`` seconds while running.

    Context manager wrapped around task execution so the claim file's
    mtime proves the owner is alive; a claim whose heartbeat stops is
    what :meth:`~repro.distrib.queuedir.WorkQueue.stale_claims` (and the
    launcher's reaper) treats as orphaned.
    """

    def __init__(self, queue: WorkQueue, name: str, interval: float) -> None:
        self.queue = queue
        self.name = name
        self.interval = interval
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def __enter__(self) -> "ClaimHeartbeat":
        if self.interval > 0:
            self._thread = threading.Thread(
                target=self._beat, name=f"heartbeat-{self.name}", daemon=True
            )
            self._thread.start()
        return self

    def _beat(self) -> None:
        while not self._stop.wait(self.interval):
            # A vanished claim means the reaper requeued us (we stalled
            # past the stale timeout).  Keep running: complete() is safe
            # to race — results are deterministic and keyed by name.
            self.queue.touch(self.name)

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)


def unit_front_indices(history: list, resource_key: str) -> list:
    """Indices of the feasible, non-dominated evaluations of one history.

    Dominance is over (objective maximized, primary resource minimized)
    — the same axes as :func:`repro.core.pareto.search_pareto`.  Kept as
    indices so the wire format never duplicates evaluations.
    """
    eligible = [
        (i, e) for i, e in enumerate(history)
        if e.feasible and resource_key in e.metrics
    ]
    if not eligible:
        return []
    points = [
        {"objective": float(e.objective), "resource": -float(e.metrics[resource_key])}
        for _, e in eligible
    ]
    keep = pareto_front(points, ["objective", "resource"])
    return sorted(eligible[i][0] for i in keep)


@dataclass
class UnitResult:
    """Everything one work unit produced."""

    model_index: int
    model_name: str
    family_index: int
    algorithm: str
    start: int
    history: list = field(default_factory=list)  # [Evaluation]
    front: list = field(default_factory=list)    # indices into history
    spill: "str | None" = None                   # cache spill path, if any
    elapsed_s: float = 0.0

    @property
    def result(self) -> OptimizationResult:
        return OptimizationResult(history=list(self.history))

    def to_dict(self) -> dict:
        return {
            "model_index": self.model_index,
            "model_name": self.model_name,
            "family_index": self.family_index,
            "algorithm": self.algorithm,
            "start": self.start,
            "history": [e.to_dict() for e in self.history],
            "front": list(self.front),
            "spill": self.spill,
            "elapsed_s": self.elapsed_s,
        }

    @staticmethod
    def from_dict(doc: dict) -> "UnitResult":
        return UnitResult(
            model_index=int(doc["model_index"]),
            model_name=doc["model_name"],
            family_index=int(doc["family_index"]),
            algorithm=doc["algorithm"],
            start=int(doc.get("start", 0)),
            history=[Evaluation.from_dict(e, f"unit result history[{i}]")
                     for i, e in enumerate(doc.get("history", []))],
            front=[int(i) for i in doc.get("front", [])],
            spill=doc.get("spill"),
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
        )


@dataclass
class ShardResult:
    """One task's complete output, JSON-serializable end to end.

    ``attempt`` echoes the task's retry generation (0 = first launch)
    so the driver's bookkeeping can tell which attempt finally landed.

    ``spans`` and ``metrics`` carry the shard's observability payload
    when ``REPRO_OBS`` is set: span events from a tracer *local to the
    :func:`run_shard` call* (so thread- and subprocess-launched shards
    ship identical shapes) and the matching registry snapshot.  The
    merge layer folds them into a fleet-wide timeline and a single
    metrics snapshot.  Both default empty, so pre-observability result
    payloads still deserialize.
    """

    index: int
    n_shards: int
    units: list = field(default_factory=list)  # [UnitResult]
    elapsed_s: float = 0.0
    attempt: int = 0
    spans: list = field(default_factory=list)    # [trace event dict]
    metrics: dict = field(default_factory=dict)  # MetricsRegistry.snapshot()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_shards": self.n_shards,
            "units": [u.to_dict() for u in self.units],
            "elapsed_s": self.elapsed_s,
            "attempt": self.attempt,
            "spans": list(self.spans),
            "metrics": dict(self.metrics),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ShardResult":
        return ShardResult(
            index=int(doc["index"]),
            n_shards=int(doc["n_shards"]),
            units=[UnitResult.from_dict(u) for u in doc.get("units", [])],
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            attempt=int(doc.get("attempt", 0)),
            spans=list(doc.get("spans", [])),
            metrics=dict(doc.get("metrics", {})),
        )


def run_shard(
    spec: RunSpec, shard: ShardSpec, spill_dir: "str | None" = None
) -> ShardResult:
    """Execute every work unit of one shard in this process.

    ``spill_dir`` overrides where this shard's evaluation caches spill
    (launchers give each shard its own directory so concurrent shards
    never interleave; the driver merges afterwards).  Defaults to the
    spec's ``cache_dir``.

    With ``REPRO_OBS`` set, each unit runs under a ``distrib.unit``
    span recorded by a tracer and registry local to this call — never
    the process-wide ones, so the observability payload riding home in
    :class:`ShardResult` is identical whether the launcher is a thread,
    a subprocess, or a remote drainer.  Clock reads are the only side
    effect: seeds, trajectories, and histories are untouched.
    """
    if obs_enabled():
        registry = MetricsRegistry()
        tracer = Tracer(counter_registry=registry)
    else:
        registry = None
        tracer = NULL_TRACER
    started = time.perf_counter()
    platform = PlatformSpec(spec.target)
    if spec.performance:
        platform.constrain(performance=dict(spec.performance))
    if spec.resources:
        platform.constrain(resources=dict(spec.resources))
    backend = platform.backend()
    constraints = platform.constraints()
    resource_key = PRIMARY_RESOURCE.get(spec.target)
    spill_dir = spill_dir if spill_dir is not None else spec.cache_dir

    datasets: dict = {}
    results: list = []
    for unit in shard.units:
        entry = spec.models[unit.model_index]
        if unit.model_index not in datasets:
            datasets[unit.model_index] = entry.dataset.materialize()
        dataset = datasets[unit.model_index]
        model = entry.to_model(dataset)
        model_seed = unit_model_seed(spec, unit.model_index)
        family_seed = unit_family_seed(model_seed, unit.family_index, unit.start)
        unit_started = time.perf_counter()
        with tracer.span(
            "distrib.unit",
            shard=shard.index,
            model=unit.model_name,
            family=unit.family_index,
            algorithm=unit.algorithm,
            start=unit.start,
        ):
            evaluator, result = _search_one_family(
                model,
                dataset,
                backend,
                constraints,
                unit.algorithm,
                unit.family_index,
                budget=spec.budget,
                warmup=spec.warmup,
                train_epochs=spec.train_epochs,
                seed=model_seed,
                cache_dir=spill_dir,
                family_seed=family_seed,
            )
        results.append(
            UnitResult(
                model_index=unit.model_index,
                model_name=unit.model_name,
                family_index=unit.family_index,
                algorithm=unit.algorithm,
                start=unit.start,
                history=list(result.history),
                front=(
                    unit_front_indices(result.history, resource_key)
                    if resource_key else []
                ),
                spill=evaluator.cache.path if evaluator.cache is not None else None,
                elapsed_s=time.perf_counter() - unit_started,
            )
        )
    return ShardResult(
        index=shard.index,
        n_shards=shard.n_shards,
        units=results,
        elapsed_s=time.perf_counter() - started,
        attempt=shard.attempt,
        spans=tracer.drain() if registry is not None else [],
        metrics=registry.snapshot() if registry is not None else {},
    )


# --------------------------------------------------------------------------- #
# process entry points
# --------------------------------------------------------------------------- #
def run_task_payload(payload: dict, allow_chaos_kill: bool = False) -> dict:
    """Execute one ``{"run":..., "shard":..., "spill_dir":...}`` task.

    The optional ``"name"`` key is the task's queue/file name; it only
    feeds the crash-injection hook (:func:`maybe_inject_chaos`), never
    the search itself.
    """
    maybe_inject_chaos(payload.get("name"), allow_kill=allow_chaos_kill)
    spec = RunSpec.from_dict(payload["run"])
    shard = ShardSpec.from_dict(payload["shard"])
    result = run_shard(spec, shard, spill_dir=payload.get("spill_dir"))
    return result.to_dict()


def drain(queue_dir: str, poll: float = 0.2, max_idle: float = 0.0,
          heartbeat: float = 2.0, allow_chaos_kill: bool = False,
          stop=None) -> int:
    """Claim and run tasks from a queue directory until it goes quiet.

    With ``max_idle == 0`` the drain exits as soon as no task is
    claimable (the launcher posts everything before starting drainers);
    a positive ``max_idle`` keeps polling that many seconds for
    stragglers — the long-lived multi-machine mode, and what lets a
    drainer outlive the stale-claim window so it can pick up tasks the
    reaper requeues after a peer dies.  While a task runs, the claim
    file is touched every ``heartbeat`` seconds (0 disables) so the
    reaper can tell this worker is alive.  ``stop`` is an optional
    zero-argument callable polled between tasks; returning ``True``
    ends the drain (how in-process drainers shut down with their
    launcher).  Returns how many tasks this worker completed.
    """
    queue = WorkQueue(queue_dir)
    tracer = get_tracer()  # NULL_TRACER unless REPRO_OBS is set
    done = 0
    idle_since: "float | None" = None
    while True:
        if stop is not None and stop():
            return done
        claim = queue.claim()
        if claim is None:
            now = time.monotonic()
            if max_idle <= 0:
                return done
            idle_since = idle_since if idle_since is not None else now
            if now - idle_since > max_idle:
                return done
            time.sleep(poll)
            continue
        idle_since = None
        name, payload = claim
        try:
            with ClaimHeartbeat(queue, name, heartbeat), \
                    tracer.span("distrib.task", task=name, worker=worker_id()):
                queue.complete(
                    name,
                    run_task_payload(payload, allow_chaos_kill=allow_chaos_kill),
                )
            done += 1
        except Exception as exc:  # a bad shard must not kill the drain loop
            queue.fail(name, f"{type(exc).__name__}: {exc}")


def reap(queue_dir: str, stale_after: float, poll: "float | None" = None,
         once: bool = False, stop=None, on_reap=None) -> int:
    """Requeue stale claims in ``queue_dir`` until stopped.

    The standalone twin of the driver's
    :class:`~repro.distrib.launchers.ReaperThread`, for fleets whose
    drainers are all external machines: if the driver host dies, its
    in-process reaper dies with it, and any claim owned by a worker
    that also crashes would strand in ``claimed/`` forever.  Running
    ``python -m repro.distrib.worker --reap <dir> --stale-after S`` on
    any surviving machine closes that hole — requeueing is an atomic
    rename, so any number of reapers (including the driver's own) race
    safely over the same queue.

    Every ``poll`` seconds (default ``stale_after / 4``, the
    ReaperThread cadence) claims whose mtime lags more than
    ``stale_after`` are pushed back to ``tasks/``.  ``once=True``
    sweeps a single round and returns (cron-style use); otherwise the
    loop runs until ``stop`` (an optional zero-argument callable polled
    each round) returns ``True``.  ``on_reap`` is called with each
    requeued name.  Returns how many claims were requeued.
    """
    from repro.errors import DistributionError

    if stale_after <= 0:
        raise DistributionError(f"stale_after must be > 0, got {stale_after}")
    queue = WorkQueue(queue_dir)
    interval = poll if poll is not None else max(stale_after / 4, 0.05)
    reaped = 0
    while True:
        for name in queue.stale_claims(stale_after):
            if queue.requeue_stale(name):
                reaped += 1
                if on_reap is not None:
                    on_reap(name)
        if once or (stop is not None and stop()):
            return reaped
        time.sleep(interval)


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.distrib.worker",
        description="Run one search shard, drain a work-queue directory, "
                    "or reap its stale claims.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--task", help="shard task JSON file")
    mode.add_argument("--drain", metavar="QUEUE_DIR",
                      help="claim+run tasks from this work-queue directory")
    mode.add_argument("--reap", metavar="QUEUE_DIR",
                      help="requeue stale claims in this work-queue "
                           "directory (run it on any machine that can see "
                           "the queue; survives driver death)")
    parser.add_argument("--out", help="result JSON path (with --task)")
    parser.add_argument(
        "--stale-after", type=float, default=30.0,
        help="reap a claim once its heartbeat mtime lags this many "
             "seconds (with --reap; must exceed the worker heartbeat)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="with --reap: one sweep, then exit (cron-style)",
    )
    parser.add_argument("--poll", type=float, default=0.2,
                        help="drain poll interval in seconds")
    parser.add_argument(
        "--max-idle", type=float, default=0.0,
        help="keep draining this many idle seconds before exiting "
             "(0 = exit when the queue is empty)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=2.0,
        help="touch the claim file this often while running a task "
             "(0 = no heartbeat; stale-claim reaping then sees long "
             "tasks as orphans)",
    )
    args = parser.parse_args(argv)
    if args.task:
        if not args.out:
            print("error: --task requires --out", file=sys.stderr)
            return 2
        with open(args.task) as handle:
            payload = json.load(handle)
        try:
            atomic_write_json(
                args.out, run_task_payload(payload, allow_chaos_kill=True)
            )
        finally:
            flush_obs()
        return 0
    if args.reap:
        if args.stale_after <= 0:
            print("error: --stale-after must be > 0", file=sys.stderr)
            return 2
        try:
            reaped = reap(
                args.reap, stale_after=args.stale_after, once=args.once,
                on_reap=lambda name: print(f"requeued stale claim: {name}"),
            )
        except KeyboardInterrupt:
            return 0
        print(f"reaped {reaped} stale claim(s) from {args.reap}")
        return 0
    try:
        completed = drain(args.drain, poll=args.poll, max_idle=args.max_idle,
                          heartbeat=args.heartbeat, allow_chaos_kill=True)
    finally:
        flush_obs()
    print(f"drained {completed} task(s) from {args.drain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
