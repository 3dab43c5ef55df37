"""A file/directory work-queue N machines can drain against shared storage.

No broker, no sockets: the queue is four subdirectories on a filesystem
every participant can reach (NFS, a bind mount, or just ``/tmp`` for
single-host tests)::

    <root>/
      tasks/<name>.json     posted by the driver (atomic tmp + os.replace)
      claimed/<name>.json   a worker owns the task (atomic os.rename claim)
      results/<name>.json   completed payload (atomic tmp + os.replace)
      failed/<name>.json    the task + error text of a crashed run

The two primitives carry all the coordination:

* **post/complete/fail** write a temporary file in the target directory
  and ``os.replace`` it into place, so a concurrent reader can never
  observe a partial JSON document;
* **claim** is ``os.rename(tasks/X, claimed/X)`` — atomic on POSIX, so
  exactly one of any number of racing workers wins a task; the losers
  get ``FileNotFoundError`` and move on.

Workers keep no connection to the driver.  The driver polls
``results/`` (and ``failed/``) until every posted name is accounted
for; a worker that dies *after* claiming leaves its task in
``claimed/``, where :meth:`WorkQueue.requeue_stale` can push it back.
Liveness rides on the claim file's mtime: a healthy worker
:meth:`~WorkQueue.touch`\\ es its claim periodically (the heartbeat),
and a reaper requeues any claim whose mtime falls behind — see
:class:`~repro.distrib.launchers.ReaperThread`.

Task names are **attempt-namespaced** (``unit-0003.a0``,
``unit-0003.a1``, …): every retry of a logical task posts under a fresh
name, so a stale ``failed/<name>.json`` from an earlier attempt can
never mask the retry's outcome and the driver's accounting stays
one-name-one-verdict.

Example::

    queue = WorkQueue("/mnt/shared/search-7")      # driver, machine A
    queue.post("unit-0000.a0", payload)

    # machines B..N, any number of them:
    #   python -m repro.distrib.worker --drain /mnt/shared/search-7
"""

from __future__ import annotations

import json
import os
import socket
import time

from repro.errors import DistributionError
from repro.fsio import atomic_write_json
from repro.obs.registry import get_registry

__all__ = ["WorkQueue", "worker_id"]

_SUBDIRS = ("tasks", "claimed", "results", "failed")

#: Probe file the queue touches to read the *filesystem's* clock.
_NOW_PROBE = ".now-probe"


def _count(event: str) -> None:
    """Bump the queue-event counter (no-op unless ``REPRO_OBS``)."""
    get_registry().counter(
        "repro_queue_events_total",
        help="work-queue protocol events by type",
        labels=("event",),
    ).labels(event=event).inc()


def worker_id() -> str:
    """The host:pid identity workers stamp on failure records.

    The driver's retry bookkeeping (``excluded`` per unit) uses it to
    show *which* worker failed each attempt — diagnostics, not routing:
    the queue has no targeted assignment, so a retry lands wherever
    claim order takes it.
    """
    return f"{socket.gethostname()}:{os.getpid()}"


class WorkQueue:
    """Driver- and worker-side handle on one queue directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        for sub in _SUBDIRS:
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    # -- path helpers -------------------------------------------------------
    def _path(self, sub: str, name: str) -> str:
        return os.path.join(self.root, sub, f"{name}.json")

    def _write_atomic(self, sub: str, name: str, payload: dict) -> str:
        return atomic_write_json(self._path(sub, name), payload)

    def _names(self, sub: str) -> list:
        try:
            entries = os.listdir(os.path.join(self.root, sub))
        except FileNotFoundError:
            # The queue directory was deleted out from under us — a
            # lingering drainer outliving a finished run's scratch dir.
            # An empty listing lets it idle out instead of crashing.
            return []
        return sorted(
            entry[: -len(".json")] for entry in entries
            if entry.endswith(".json")
        )

    def fs_now(self) -> float:
        """The queue filesystem's idea of "now", as an mtime.

        Claim heartbeats are mtimes written by *other machines* through
        a shared filesystem, so comparing them against the local
        :func:`time.time` bakes any cross-machine clock skew straight
        into staleness decisions — a worker whose NFS server runs a
        minute ahead looks dead the moment it claims.  Instead, touch a
        probe file in the queue root and read back the mtime the
        filesystem assigned: that is the same clock that stamps every
        heartbeat, so skew cancels out.  Falls back to ``time.time()``
        only if the probe cannot be written (read-only observer).
        """
        probe = os.path.join(self.root, _NOW_PROBE)
        try:
            with open(probe, "w"):
                pass
            return os.path.getmtime(probe)
        except OSError:
            return time.time()

    # -- driver side --------------------------------------------------------
    def post(self, name: str, payload: dict) -> str:
        """Publish a task; visible to workers the moment it lands."""
        path = self._write_atomic("tasks", name, payload)
        _count("post")
        return path

    def pending(self) -> list:
        """Task names not yet claimed."""
        return self._names("tasks")

    def claimed(self) -> list:
        """Task names currently owned by some worker."""
        return self._names("claimed")

    def result_for(self, name: str) -> "dict | None":
        """The completed payload for ``name``, or ``None`` if not done."""
        path = self._path("results", name)
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def failure_for(self, name: str) -> "dict | None":
        path = self._path("failed", name)
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def requeue_stale(self, name: str) -> bool:
        """Push a claimed-but-unfinished task back to ``tasks/``.

        For recovery after a worker death.  The move is a single
        ``os.rename``, so of any number of racing reapers (two drivers
        watching the same queue, say) exactly one wins; the losers get
        ``False``.  A racing *completion* loses nothing either: results
        are keyed by name and never deleted here, and a slow-but-alive
        original worker completing alongside the requeued copy writes
        the identical payload (evaluations are deterministic functions
        of their configuration).
        """
        try:
            os.rename(self._path("claimed", name), self._path("tasks", name))
            _count("requeue")
            return True
        except FileNotFoundError:
            return False

    def discard(self, name: str) -> bool:
        """Drop a task from ``tasks/`` or ``claimed/`` without a verdict.

        Driver-side cleanup when re-posting a newer attempt of the same
        logical task: the superseded attempt's queue entry would
        otherwise get claimed (or reaper-requeued) and burn a drainer on
        work whose outcome nobody is waiting for.  Results and failures
        are never touched.
        """
        for sub in ("tasks", "claimed"):
            try:
                os.unlink(self._path(sub, name))
                _count("discard")
                return True
            except FileNotFoundError:
                continue
        return False

    def stale_claims(self, older_than: float) -> list:
        """Claim names whose file mtime lags more than ``older_than`` s.

        A healthy worker heartbeats its claim (:meth:`touch`), so a
        stale mtime means the owner died between claim and complete —
        the orphaned-task signal :class:`~repro.distrib.launchers.
        ReaperThread` feeds to :meth:`requeue_stale`.  ``older_than``
        must comfortably exceed the worker heartbeat interval.

        "Now" comes from :meth:`fs_now` — the queue filesystem's own
        clock — not the local wall clock, so heartbeats written by
        machines with skewed clocks are judged on the clock that
        actually stamped them.
        """
        now = self.fs_now()
        stale = []
        for name in self._names("claimed"):
            try:
                mtime = os.path.getmtime(self._path("claimed", name))
            except FileNotFoundError:
                continue  # completed (or requeued) between listing and stat
            if now - mtime > older_than:
                stale.append(name)
        return stale

    # -- worker side --------------------------------------------------------
    def claim(self) -> "tuple[str, dict] | None":
        """Atomically take ownership of one pending task.

        Returns ``(name, payload)`` or ``None`` when nothing is
        claimable.  Racing claimants are safe: ``os.rename`` succeeds
        for exactly one of them.  The claim file's mtime is reset to
        *now* — rename preserves the source mtime, and a requeued task
        would otherwise look stale to the reaper the instant it was
        reclaimed, before the new owner's first heartbeat.
        """
        for name in self._names("tasks"):
            src = self._path("tasks", name)
            dst = self._path("claimed", name)
            try:
                os.rename(src, dst)
            except FileNotFoundError:
                continue  # another worker won this one
            try:
                os.utime(dst)
            except OSError:
                pass  # completed out from under us already; harmless
            try:
                with open(dst) as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                self.fail(name, f"unreadable task payload: {exc}")
                continue
            _count("claim")
            return name, payload
        return None

    def touch(self, name: str) -> bool:
        """Heartbeat: refresh the claim file's mtime.

        Workers call this periodically while running a task so the
        reaper can tell a long-running claim from an orphaned one.
        Returns ``False`` when the claim no longer exists (completed,
        failed, or requeued out from under a worker that stalled past
        the stale timeout — a signal, not an error: the worker should
        still finish and :meth:`complete`, which is idempotent-safe).
        """
        try:
            os.utime(self._path("claimed", name))
            return True
        except FileNotFoundError:
            return False

    def complete(self, name: str, payload: dict) -> str:
        """Publish a result and release the claim."""
        path = self._write_atomic("results", name, payload)
        claimed = self._path("claimed", name)
        if os.path.exists(claimed):
            os.unlink(claimed)
        _count("complete")
        return path

    def fail(self, name: str, error: str) -> str:
        """Record a crash; the claim moves to ``failed/`` with the error.

        The record carries the failing :func:`worker_id` so the driver's
        retry bookkeeping can name who to exclude.
        """
        claimed = self._path("claimed", name)
        task: dict = {}
        try:
            with open(claimed) as handle:
                task = json.load(handle)
        except (OSError, json.JSONDecodeError):
            pass
        path = self._write_atomic(
            "failed", name,
            {"error": error, "task": task, "worker": worker_id()},
        )
        if os.path.exists(claimed):
            os.unlink(claimed)
        _count("fail")
        return path

    # -- bookkeeping --------------------------------------------------------
    def wait_resolved(
        self, names: list, timeout: "float | None" = None,
        poll: float = 0.05, alive=None,
    ) -> "tuple[dict, dict]":
        """Block until every name is *resolved*: a result or a failure.

        Returns ``(results, failures)``, both keyed by task name.  This
        is the fault-tolerant wait: a failure is an outcome to report,
        not an exception to raise — the caller (the driver's retry loop)
        decides whether to re-post the task under its next attempt name.

        A name with *both* a result and a failure (a requeued task whose
        slow original owner recorded a late failure while the requeued
        copy completed) counts as a result: the work is done.

        ``alive`` is an optional zero-argument callable invoked each
        poll; returning ``False`` resolves every still-missing name as a
        failure (used by launchers whose local drainers all exited).
        Only a ``timeout`` raises — time running out says nothing
        definitive about any single task.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results: dict = {}
        failures: dict = {}
        while True:
            for name in names:
                if name in results:
                    continue
                payload = self.result_for(name)
                if payload is not None:
                    results[name] = payload
                    failures.pop(name, None)
                    continue
                if name in failures:
                    continue
                failure = self.failure_for(name)
                if failure is not None:
                    failures[name] = failure
            if len(results) + len(failures) == len(names):
                return results, failures
            if alive is not None and not alive():
                for name in names:
                    if name not in results and name not in failures:
                        failures[name] = {
                            "error": "work-queue drainers exited before "
                                     "finishing this task",
                            "task": {},
                        }
                return results, failures
            if deadline is not None and time.monotonic() > deadline:
                missing = sorted(set(names) - set(results) - set(failures))
                raise DistributionError(
                    f"timed out waiting for work-queue results: {missing}"
                )
            time.sleep(poll)
