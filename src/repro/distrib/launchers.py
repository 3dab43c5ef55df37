"""Pluggable task launchers: how a planned partition actually executes.

All three launchers share one contract — ``launch(spec, tasks,
shard_dir, width=None)`` returns one outcome per task, in task order,
where an outcome is either the task's
:class:`~repro.distrib.worker.ShardResult` or a :class:`TaskFailure`
describing why that task (and only that task) did not finish.  Failure
is an *outcome*, not an exception: the driver's retry loop decides
whether to re-post a failed task under its next attempt name, so one
crashed worker never discards the survivors' results.  The launchers
differ only in *where* tasks run:

* :class:`InProcessLauncher` — a thread pool in this process.  No
  serialization, no startup cost; the reference implementation tests
  compare the others against.
* :class:`SubprocessLauncher` — ``python -m repro.distrib.worker``
  processes, at most ``width`` concurrent.  The real local backend:
  true multi-core scaling for the GIL-bound parts of a search, isolated
  interpreter state, and the same JSON wire format a remote machine
  would use.
* :class:`WorkQueueLauncher` — posts tasks to a
  :class:`~repro.distrib.queuedir.WorkQueue` directory and waits for
  results.  By default it also spawns local drainers so a single host
  completes the run, but any number of *other* machines pointed at the
  same directory (``python -m repro.distrib.worker --drain <dir>``)
  claim tasks out from under the local drainers — that is the
  multi-node mode.  A :class:`ReaperThread` watches ``claimed/`` and
  requeues any claim whose heartbeat stops, so a worker killed between
  claim and complete orphans nothing.

Every task carries one unit (see
:func:`~repro.distrib.scheduler.plan_tasks`), so every launcher is
self-balancing: workers pull the next single-unit task the moment one
finishes, so heavy families never long-pole a pre-assigned group.
Because every unit's trajectory is seeded by indices, neither the
launcher choice nor retries change results, only wall-clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import repro

from repro.errors import DistributionError

from repro.distrib.queuedir import WorkQueue, worker_id
from repro.distrib.runspec import RunSpec
from repro.distrib.worker import (
    ShardResult,
    drain,
    maybe_inject_chaos,
    run_shard,
)

__all__ = [
    "TaskFailure",
    "task_name",
    "ReaperThread",
    "InProcessLauncher",
    "SubprocessLauncher",
    "WorkQueueLauncher",
    "LAUNCHERS",
    "make_launcher",
    "shard_spill_dir",
]


@dataclass
class TaskFailure:
    """Why one task's attempt did not produce a result.

    ``index``/``attempt`` identify the task generation that failed;
    ``worker`` (host:pid when known) feeds the driver's per-unit
    ``excluded`` bookkeeping.  Launchers return these in place of a
    :class:`~repro.distrib.worker.ShardResult` so the driver can keep
    every surviving result and retry only what actually failed.
    """

    index: int
    attempt: int
    error: str
    worker: "str | None" = None


def task_name(task) -> str:
    """The attempt-namespaced queue/file name of one task.

    ``unit-0003.a0`` is attempt 0 of task index 3; a retry posts
    ``unit-0003.a1``.  Namespacing by attempt is what keeps a stale
    ``failed/unit-0003.a0.json`` from masking the retry's result and
    keeps driver accounting one-name-one-verdict.
    """
    return f"unit-{task.index:04d}.a{task.attempt}"


def shard_spill_dir(shard_dir: "str | None", spec: RunSpec, index: int) -> "str | None":
    """Where one task spills its evaluation caches.

    Each task index gets a private directory (``<shard_dir>/spills/
    shard-N``) so concurrent tasks never write the same file; the driver
    merges them into ``spec.cache_dir`` afterwards.  Retries share their
    task's directory — spilled evaluations are deterministic functions
    of their configuration, so attempts can only rewrite equal values.
    """
    root = spec.cache_dir if shard_dir is None else shard_dir
    if root is None:
        return None
    return os.path.join(root, "spills", f"shard-{index:04d}")


def _task_payload(spec: RunSpec, task, shard_dir: "str | None") -> dict:
    return {
        "name": task_name(task),
        "run": spec.to_dict(),
        "shard": task.to_dict(),
        "spill_dir": shard_spill_dir(shard_dir, spec, task.index),
    }


def _src_pythonpath() -> str:
    """A PYTHONPATH that resolves ``repro`` in a child interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


class ReaperThread(threading.Thread):
    """Requeue work-queue claims whose heartbeat has stopped.

    A worker that dies between ``claim()`` and ``complete()`` leaves its
    task stranded in ``claimed/`` forever — nothing else in the protocol
    ever looks there.  The reaper closes that hole: every ``poll``
    seconds it asks :meth:`~repro.distrib.queuedir.WorkQueue.
    stale_claims` for claims whose mtime lags more than ``stale_after``
    (healthy workers touch their claim every couple of seconds) and
    pushes each back to ``tasks/`` with :meth:`~repro.distrib.queuedir.
    WorkQueue.requeue_stale`.  Requeueing is a single atomic rename, so
    any number of reapers (one per driver watching a shared queue) race
    safely: exactly one wins each claim.

    Daemon thread; ``stop()`` ends the loop.  ``reaped`` accumulates the
    requeued names for diagnostics.
    """

    def __init__(self, queue: WorkQueue, stale_after: float,
                 poll: "float | None" = None) -> None:
        super().__init__(name="workqueue-reaper", daemon=True)
        if stale_after <= 0:
            raise DistributionError(
                f"stale_after must be > 0, got {stale_after}"
            )
        self.queue = queue
        self.stale_after = stale_after
        self.poll = poll if poll is not None else max(stale_after / 4, 0.05)
        self.reaped: list = []
        # Not named _stop: threading.Thread uses that internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.poll):
            for name in self.queue.stale_claims(self.stale_after):
                if self.queue.requeue_stale(name):
                    self.reaped.append(name)

    def stop(self) -> None:
        self._halt.set()


class InProcessLauncher:
    """Run tasks on a thread pool inside the driver process.

    Zero launch overhead; right for tests and for numpy-heavy workloads
    where threads already scale.  Pool width is ``max_workers`` when
    set, else the driver's ``width`` hint (the ``shards`` knob), else
    every task at once.  A task that raises becomes a
    :class:`TaskFailure` — the other tasks keep their results.
    """

    name = "inprocess"

    def __init__(self, max_workers: "int | None" = None) -> None:
        self.max_workers = max_workers

    def launch(self, spec: RunSpec, tasks: list, shard_dir: "str | None",
               width: "int | None" = None) -> list:
        pool_width = self.max_workers or width or max(1, len(tasks))

        def run_one(task):
            try:
                maybe_inject_chaos(task_name(task), allow_kill=False)
                return run_shard(
                    spec, task, shard_spill_dir(shard_dir, spec, task.index)
                )
            except Exception as exc:
                return TaskFailure(
                    index=task.index, attempt=task.attempt,
                    error=f"{type(exc).__name__}: {exc}", worker=worker_id(),
                )

        with ThreadPoolExecutor(max_workers=pool_width) as pool:
            return list(pool.map(run_one, tasks))


class SubprocessLauncher:
    """Worker subprocesses, at most ``width`` concurrent (the real local
    backend).

    Task and result files live under ``shard_dir`` (required — the
    driver creates a temporary directory when the caller passes none).
    Workers inherit the environment plus a ``PYTHONPATH`` that resolves
    this library, so the launcher works from a source checkout without
    installation.  A non-zero exit, a missing result file, or a timeout
    becomes that task's :class:`TaskFailure`; the other workers run to
    completion.
    """

    name = "subprocess"

    def __init__(self, python: "str | None" = None,
                 timeout: "float | None" = None) -> None:
        self.python = python or sys.executable
        self.timeout = timeout

    def launch(self, spec: RunSpec, tasks: list, shard_dir: "str | None",
               width: "int | None" = None) -> list:
        if shard_dir is None:
            raise DistributionError("SubprocessLauncher needs a shard_dir")
        tasks_dir = os.path.join(shard_dir, "tasks")
        os.makedirs(tasks_dir, exist_ok=True)
        env = {**os.environ, "PYTHONPATH": _src_pythonpath()}
        live_procs: list = []
        procs_lock = threading.Lock()
        aborting = threading.Event()

        def run_one(task):
            if aborting.is_set():
                return TaskFailure(
                    index=task.index, attempt=task.attempt,
                    error="launch aborted before this task started",
                )
            name = task_name(task)
            task_path = os.path.join(tasks_dir, f"{name}.json")
            out_path = os.path.join(tasks_dir, f"{name}.result.json")
            with open(task_path, "w") as handle:
                json.dump(_task_payload(spec, task, shard_dir), handle, indent=1)
            proc = subprocess.Popen(
                [self.python, "-m", "repro.distrib.worker",
                 "--task", task_path, "--out", out_path],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            with procs_lock:
                live_procs.append(proc)
            try:
                stdout, stderr = proc.communicate(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return TaskFailure(
                    index=task.index, attempt=task.attempt,
                    error=f"task {name}: timed out after {self.timeout}s",
                    worker=f"pid:{proc.pid}",
                )
            finally:
                with procs_lock:
                    live_procs.remove(proc)
            if proc.returncode != 0 or not os.path.exists(out_path):
                return TaskFailure(
                    index=task.index, attempt=task.attempt,
                    error=(f"task {name}: exit {proc.returncode}\n"
                           f"{stderr.strip() or stdout.strip()}"),
                    worker=f"pid:{proc.pid}",
                )
            with open(out_path) as handle:
                return ShardResult.from_dict(json.load(handle))

        pool_width = width or max(1, len(tasks))
        pool = ThreadPoolExecutor(max_workers=pool_width)
        futures = [pool.submit(run_one, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # A mid-collection error (KeyboardInterrupt, driver bug) must
            # not orphan running workers: they would keep burning CPU and
            # write into a directory the driver may be deleting.  Kill the
            # live ones *before* the pool shutdown below waits on their
            # run_one threads — killed workers exit immediately — and stop
            # not-yet-started tasks from spawning at all.
            aborting.set()
            for future in futures:
                future.cancel()
            with procs_lock:
                for proc in live_procs:
                    if proc.poll() is None:
                        proc.kill()
            raise
        finally:
            pool.shutdown(wait=True)


class WorkQueueLauncher:
    """Post tasks to a work-queue directory and wait for the outcomes.

    Parameters
    ----------
    drainers:
        local drainers to start.  ``None`` (default) follows the
        driver's ``width`` hint — the ``shards`` knob — so ``shards``
        bounds drainer concurrency like every other launcher; ``0`` relies entirely on external machines
        already pointed at the directory.
    mode:
        ``"subprocess"`` (default) starts drainer worker processes;
        ``"thread"`` drains in-process (cheap, for tests).
    timeout:
        overall seconds to wait for all outcomes.
    stale_after:
        requeue a claim once its heartbeat lags this many seconds
        (``None`` disables the reaper — a worker death then strands its
        claim until an external reaper or the driver's retry round).
        Must comfortably exceed ``heartbeat``; local drainers idle twice
        this long before exiting, so a requeued task always finds a
        living drainer.
    heartbeat:
        how often workers touch their claim while running (forwarded to
        local drainers).  ``None`` (default) derives a safe value from
        ``stale_after`` (a quarter of it, capped at 2 s), so tight stale
        windows work without tuning two knobs.  An explicit value must
        be positive while the reaper is enabled — un-heartbeated claims
        would be reaped mid-task.
    """

    name = "workqueue"

    def __init__(self, drainers: "int | None" = None,
                 mode: str = "subprocess",
                 timeout: "float | None" = None,
                 stale_after: "float | None" = 60.0,
                 heartbeat: "float | None" = None) -> None:
        if mode not in ("subprocess", "thread"):
            raise DistributionError(
                f"mode must be 'subprocess' or 'thread', got {mode!r}"
            )
        if drainers is not None and drainers < 0:
            raise DistributionError(f"drainers must be >= 0, got {drainers}")
        if heartbeat is None:
            heartbeat = min(2.0, stale_after / 4.0) if stale_after else 2.0
        if stale_after is not None:
            if heartbeat <= 0:
                raise DistributionError(
                    "heartbeat must be > 0 while the reaper is enabled "
                    "(stale_after is set), or healthy workers get reaped"
                )
            if stale_after <= 2 * heartbeat:
                raise DistributionError(
                    f"stale_after ({stale_after}s) must exceed twice the "
                    f"heartbeat ({heartbeat}s), or healthy workers get reaped"
                )
        self.drainers = drainers
        self.mode = mode
        self.timeout = timeout
        self.stale_after = stale_after
        self.heartbeat = heartbeat

    def _linger(self) -> float:
        """How long idle drainers wait for requeued stragglers."""
        if self.stale_after is None:
            return 0.0
        return max(2 * self.stale_after, 2.0)

    def launch(self, spec: RunSpec, tasks: list, shard_dir: "str | None",
               width: "int | None" = None) -> list:
        if shard_dir is None:
            raise DistributionError("WorkQueueLauncher needs a shard_dir")
        queue_dir = os.path.join(shard_dir, "queue")
        queue = WorkQueue(queue_dir)
        names = []
        for task in tasks:
            name = task_name(task)
            # Superseded attempts may still sit in tasks/ or claimed/
            # (their drainers died); drop them so nobody burns budget on
            # work whose outcome the driver stopped waiting for.
            for stale in range(task.attempt):
                queue.discard(task_name(replace(task, attempt=stale)))
            queue.post(name, _task_payload(spec, task, shard_dir))
            names.append(name)

        procs: list = []
        threads: list = []
        stop_draining = threading.Event()
        linger = self._linger()
        # None = follow the driver's width hint (the `shards` knob), so
        # runs get `shards`-wide drainer concurrency —
        # capped at the pending-task count, so a retry round re-posting
        # two stragglers doesn't pay a full fleet of interpreter starts.
        if self.drainers is not None:
            drainers = self.drainers
        else:
            drainers = min(width or 1, max(1, len(tasks)))
        if drainers and self.mode == "subprocess":
            env = {**os.environ, "PYTHONPATH": _src_pythonpath()}
            for _ in range(drainers):
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.distrib.worker",
                         "--drain", queue_dir,
                         "--max-idle", str(linger),
                         "--heartbeat", str(self.heartbeat)],
                        env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                )
        elif drainers:
            for _ in range(drainers):
                thread = threading.Thread(
                    target=drain, daemon=True,
                    args=(queue_dir,),
                    kwargs={"poll": 0.05, "max_idle": linger,
                            "heartbeat": self.heartbeat,
                            "stop": stop_draining.is_set},
                )
                thread.start()
                threads.append(thread)

        def alive() -> bool:
            # Once every *local* drainer is gone, unfinished work — still
            # pending, or claimed by a drainer that died mid-task — can
            # only complete via an external machine; with local drainers
            # configured we must not assume one exists, so resolve the
            # leftovers as failures (the driver may retry with a fresh
            # drainer fleet) instead of polling forever.  (Mixed local +
            # external fleets should use drainers=0 or a timeout.)
            if procs:
                if any(p.poll() is None for p in procs):
                    return True
                return not queue.pending() and not queue.claimed()
            if threads:
                if any(t.is_alive() for t in threads):
                    return True
                return not queue.pending() and not queue.claimed()
            return True  # external drainers only: wait for the timeout

        reaper = None
        if self.stale_after is not None:
            reaper = ReaperThread(queue, self.stale_after)
            reaper.start()
        try:
            results, failures = queue.wait_resolved(
                names, timeout=self.timeout,
                alive=alive if drainers else None,
            )
        finally:
            if reaper is not None:
                reaper.stop()
            stop_draining.set()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for thread in threads:
                thread.join(timeout=5)

        outcomes: list = []
        for task, name in zip(tasks, names):
            if name in results:
                outcomes.append(ShardResult.from_dict(results[name]))
            else:
                failure = failures[name]
                outcomes.append(
                    TaskFailure(
                        index=task.index, attempt=task.attempt,
                        error=f"task {name}: {failure.get('error')}",
                        worker=failure.get("worker"),
                    )
                )
        return outcomes


#: Launcher registry for CLI flags.
LAUNCHERS = {
    InProcessLauncher.name: InProcessLauncher,
    SubprocessLauncher.name: SubprocessLauncher,
    WorkQueueLauncher.name: WorkQueueLauncher,
}


def make_launcher(name: str, **kwargs):
    """Instantiate a launcher by registry name (CLI plumbing)."""
    if name not in LAUNCHERS:
        raise DistributionError(
            f"unknown launcher {name!r}; available: {sorted(LAUNCHERS)}"
        )
    return LAUNCHERS[name](**kwargs)
