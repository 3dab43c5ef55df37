"""The distributed-search driver: ``run_sharded`` end to end.

Plan, launch (with retries), merge — one call::

    from repro.distrib import RunSpec, ModelEntry, DatasetRef, run_sharded

    spec = RunSpec(
        target="taurus",
        models=[ModelEntry(name="ad", dataset=DatasetRef.for_app("ad", seed=7))],
        budget=20, seed=0,
    )
    out = run_sharded(spec, shards=4)            # threads, this machine
    out = run_sharded(spec, shards=4,            # processes, this machine
                      launcher=SubprocessLauncher(), shard_dir="build/shards")
    out = run_sharded(spec, shards=4,            # survive worker crashes
                      launcher=WorkQueueLauncher(drainers=4),
                      shard_dir="build/shards", max_retries=2)
    print(out.report.summary())                  # == the serial report

Worker failure is treated as the common case, not the fatal one: the
unit of distribution is one BO loop, launchers
report per-task outcomes instead of aborting, and the driver re-posts
only what failed — with attempt-suffixed task names and per-unit
attempt/``excluded`` bookkeeping — until every planned unit has exactly
one accepted result or ``max_retries`` is exhausted.  Because seeds
derive from indices and never from attempts, a run that needed three
tries merges bit-identically to one that needed none.

The driver materializes datasets once and reuses them for planning and
for the merge-time winner rebuilds; launchers that cross a process
boundary re-materialize from the :class:`~repro.distrib.runspec.RunSpec`
dataset references instead.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

from repro.errors import DistributionError
from repro.obs.trace import get_tracer

from repro.distrib.launchers import (
    InProcessLauncher,
    TaskFailure,
    shard_spill_dir,
    task_name,
)
from repro.distrib.merge import (
    DistributedReport,
    merge_results,
    merge_shard_spill_dirs,
)
from repro.distrib.runspec import RunSpec
from repro.distrib.scheduler import plan_tasks, plan_units

__all__ = ["run_sharded"]


def _unit_keys(task) -> list:
    return [(u.model_index, u.family_index, u.start) for u in task.units]


def run_sharded(
    spec: RunSpec,
    shards: int = 1,
    launcher=None,
    shard_dir: "str | None" = None,
    max_retries: int = 0,
) -> DistributedReport:
    """Run a search partitioned over distributable tasks.

    Parameters
    ----------
    spec:
        the serializable run description.
    shards:
        the parallelism knob: it bounds how many tasks run concurrently
        (pool width / subprocess count).  Every BO loop is its own task,
        so launchers self-balance by claim/pool order and a retry costs
        one loop.
    launcher:
        an :class:`~repro.distrib.launchers.InProcessLauncher` (default),
        :class:`~repro.distrib.launchers.SubprocessLauncher`, or
        :class:`~repro.distrib.launchers.WorkQueueLauncher`.
    shard_dir:
        scratch directory for task/result/spill files.  Required
        conceptually by the subprocess and work-queue launchers; when
        omitted, a temporary directory is created (and the merged cache
        still lands in ``spec.cache_dir`` if that is set).
    max_retries:
        how many times a failed task is re-posted (with an
        attempt-suffixed name) before the run aborts.  0 keeps every
        surviving result but fails fast on the first exhausted task.

    Results are launcher-, shard-count-, and
    retry-invariant; see ``docs/distrib.md`` for why.  Retry accounting
    lands in ``report.stats["fault_tolerance"]``.
    """
    if shards < 1:
        raise DistributionError(f"shards must be >= 1, got {shards}")
    if max_retries < 0:
        raise DistributionError(f"max_retries must be >= 0, got {max_retries}")
    launcher = launcher if launcher is not None else InProcessLauncher()
    tracer = get_tracer()  # NULL_TRACER unless REPRO_OBS is set

    datasets: dict = {}
    with tracer.span("distrib.plan", shards=shards):
        units = plan_units(spec, datasets=datasets)
        tasks = plan_tasks(units, shards)

    tmp = None
    needs_dir = getattr(launcher, "name", "") in ("subprocess", "workqueue")
    if shard_dir is None and (needs_dir or spec.cache_dir):
        tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
        shard_dir = tmp.name
    try:
        accepted: dict = {}          # task index -> ShardResult
        attempts = {task.index: 0 for task in tasks}
        excluded: dict = {}          # task index -> [worker ids that failed it]
        launches = 0
        pending = list(tasks)
        while pending:
            with tracer.span(
                "distrib.launch",
                launcher=getattr(launcher, "name", type(launcher).__name__),
                tasks=len(pending),
            ):
                outcomes = launcher.launch(
                    spec, pending, shard_dir, width=shards
                )
            launches += len(pending)
            if len(outcomes) != len(pending):
                raise DistributionError(
                    f"launcher returned {len(outcomes)} outcomes "
                    f"for {len(pending)} tasks"
                )
            retry: list = []
            exhausted: list = []
            for task, outcome in zip(pending, outcomes):
                if isinstance(outcome, TaskFailure):
                    excluded.setdefault(task.index, []).append(
                        outcome.worker or "unknown"
                    )
                    if task.attempt >= max_retries:
                        exhausted.append((task, outcome))
                    else:
                        retry.append(replace(task, attempt=task.attempt + 1))
                        attempts[task.index] = task.attempt + 1
                else:
                    # Exactly one outcome per posted task: requeue-race
                    # duplicate completions were already collapsed by
                    # name inside the launcher's wait.
                    accepted[task.index] = outcome
            if exhausted:
                details = "\n".join(
                    f"  {task_name(task)} units={_unit_keys(task)} "
                    f"(attempt {task.attempt} of {max_retries} retries, "
                    f"excluded workers: {excluded.get(task.index)}): "
                    f"{failure.error}"
                    for task, failure in exhausted
                )
                raise DistributionError(
                    f"{len(exhausted)} task(s) failed with retries exhausted "
                    f"({len(accepted)}/{len(tasks)} tasks completed and kept "
                    f"their results):\n{details}"
                )
            pending = retry

        shard_results = [accepted[task.index] for task in tasks]
        with tracer.span("distrib.merge", tasks=len(tasks)):
            merged = merge_results(spec, shard_results, datasets=datasets)
        merged.stats["fault_tolerance"] = {
            "max_retries": max_retries,
            "tasks": len(tasks),
            "task_launches": launches,
            "retries": launches - len(tasks),
            "retried_tasks": {
                index: count for index, count in attempts.items() if count
            },
            "excluded": excluded,
        }
        if spec.cache_dir:
            os.makedirs(spec.cache_dir, exist_ok=True)
            merged.cache = merge_shard_spill_dirs(
                [
                    shard_spill_dir(shard_dir, spec, task.index)
                    for task in tasks
                ],
                spec.cache_dir,
            )
        return merged
    finally:
        if tmp is not None:
            tmp.cleanup()
