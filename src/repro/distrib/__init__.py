"""Multi-node shard scheduling for distributed search.

A Homunculus compile spends nearly all of its wall-clock inside
Bayesian-optimization trials, and those trials partition cleanly: every
(model, algorithm-family) search — and every multi-start trajectory of
one — is an independent BO loop whose seed derives from indices, never
from execution order.  This package exploits that:

* :mod:`repro.distrib.runspec` — :class:`RunSpec`, the JSON wire format
  that lets any process rebuild the exact search,
* :mod:`repro.distrib.scheduler` — work-unit enumeration and task
  planning (one task per unit by default, or a round-robin shard
  partition),
* :mod:`repro.distrib.worker` — shard execution (library call,
  ``--task`` subprocess, or ``--drain`` against a shared queue dir),
* :mod:`repro.distrib.queuedir` — the file/directory work-queue protocol
  N machines drain against shared storage,
* :mod:`repro.distrib.launchers` — in-process, subprocess, and
  work-queue launchers behind one interface; each reports per-task
  outcomes (:class:`~repro.distrib.launchers.TaskFailure` instead of an
  abort) and the work-queue launcher runs a
  :class:`~repro.distrib.launchers.ReaperThread` that requeues claims
  whose worker heartbeat stopped,
* :mod:`repro.distrib.merge` — winner selection under the serial rule,
  cross-shard Pareto re-filtering, last-writer-wins cache-spill merging,
  and run-level statistics,
* :mod:`repro.distrib.driver` — :func:`run_sharded`, the one-call
  plan -> launch (with automatic retry) -> merge pipeline.

The load-bearing property, tested at every layer: **sharding changes
wall-clock, never results**.  A ``starts == 1`` distributed run merges
to the bit-identical report of the serial :func:`repro.generate`, for
any shard count, any launcher — and any number of
worker crashes the retry budget absorbs, because seeds derive from
indices and never from attempts.  See ``docs/distrib.md``.
"""

from repro.distrib.driver import run_sharded
from repro.distrib.launchers import (
    LAUNCHERS,
    InProcessLauncher,
    ReaperThread,
    SubprocessLauncher,
    TaskFailure,
    WorkQueueLauncher,
    make_launcher,
    task_name,
)
from repro.distrib.merge import (
    DistributedReport,
    aggregate_stats,
    merge_fronts,
    merge_results,
    merge_spills,
)
from repro.distrib.queuedir import WorkQueue
from repro.distrib.runspec import (
    DatasetRef,
    ModelEntry,
    RunSpec,
    load_dataset_npz,
    save_dataset_npz,
)
from repro.distrib.scheduler import (
    ShardSpec,
    WorkUnit,
    plan_tasks,
    plan_units,
)
from repro.distrib.worker import ShardResult, UnitResult, run_shard

__all__ = [
    "RunSpec",
    "ModelEntry",
    "DatasetRef",
    "save_dataset_npz",
    "load_dataset_npz",
    "WorkUnit",
    "ShardSpec",
    "plan_units",
    "plan_tasks",
    "run_shard",
    "UnitResult",
    "ShardResult",
    "WorkQueue",
    "InProcessLauncher",
    "SubprocessLauncher",
    "WorkQueueLauncher",
    "TaskFailure",
    "ReaperThread",
    "task_name",
    "LAUNCHERS",
    "make_launcher",
    "run_sharded",
    "DistributedReport",
    "merge_results",
    "merge_fronts",
    "merge_spills",
    "aggregate_stats",
]
