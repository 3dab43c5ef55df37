"""Merge shard results back into one run-level report.

Three independent merges happen here, one per artifact kind:

* **Winners** — per model, each family's best-over-starts incumbent
  competes under the *serial* selection rule
  (:func:`repro.core.compiler.pick_winner`), and the winning
  configuration is deterministically rebuilt in the driver — so a
  distributed run's :class:`~repro.core.reports.CompileReport` is
  bit-identical to the serial one (``starts == 1``) or strictly better
  (multi-start).
* **Pareto fronts** — shards ship their per-unit non-dominated sets;
  the merge pools them per model and re-filters dominance across
  shards (a point on a shard's front may be dominated by another
  shard's — re-filtering is what makes the union a real front).
* **Evaluation caches** — per-family JSON spills are folded
  **last-writer-wins** in shard order, the documented
  :meth:`~repro.bayesopt.cache.EvaluationCache.load` merge semantics;
  because evaluations are deterministic functions of their
  configuration, conflicting writers always carry equal values and the
  merged cache is shard-count-invariant.

Per-shard unit counts, evaluation counts and wall clock are gathered
into a run-level view, so an operator sees where a fleet spent its
time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bayesopt.cache import EvaluationCache
from repro.bayesopt.scalarization import pareto_front
from repro.core.compiler import (
    compose_report,
    reduce_starts,
    winning_model_report,
)
from repro.core.evaluator import ModelEvaluator
from repro.core.pareto import PRIMARY_RESOURCE
from repro.core.reports import CompileReport
from repro.errors import DistributionError
from repro.fsio import sweep_orphan_tmp
from repro.obs.registry import merge_snapshots

from repro.distrib.runspec import RunSpec
from repro.distrib.scheduler import plan_units, unit_model_seed

__all__ = [
    "DistributedReport",
    "merge_results",
    "merge_fronts",
    "merge_spills",
    "merge_shard_spill_dirs",
    "aggregate_stats",
    "merge_obs",
]


def merge_fronts(fronts: list, resource_key: str) -> list:
    """Re-filter per-shard Pareto fronts into one global front.

    ``fronts`` is a list of evaluation lists (each already non-dominated
    *within its shard*).  Dominance is re-tested across the pooled
    points — the union of fronts is not a front — over (objective
    maximized, ``resource_key`` minimized).  Ordering is deterministic:
    ascending resource, then descending objective.
    """
    pooled = [
        e for front in fronts for e in front
        if e.feasible and resource_key in e.metrics
    ]
    if not pooled:
        return []
    points = [
        {"objective": float(e.objective), "resource": -float(e.metrics[resource_key])}
        for e in pooled
    ]
    keep = pareto_front(points, ["objective", "resource"])
    front = [pooled[i] for i in keep]
    # Deduplicate identical (objective, resource) pairs contributed by
    # several shards (e.g. the same cached config evaluated twice).
    unique: dict = {}
    for e in front:
        key = (round(float(e.objective), 12),
               round(float(e.metrics[resource_key]), 12),
               tuple(sorted((k, repr(v)) for k, v in e.config.items())))
        unique.setdefault(key, e)
    return sorted(
        unique.values(),
        key=lambda e: (float(e.metrics[resource_key]), -float(e.objective)),
    )


def merge_spills(spill_paths: list, out_path: str) -> EvaluationCache:
    """Fold cache spill files into one spill, last writer wins.

    ``spill_paths`` must be ordered (shard order); later files override
    earlier ones for conflicting configurations, exactly as documented
    on :meth:`EvaluationCache.load`.  The merged cache is written
    atomically to ``out_path`` and returned.

    Merge time is also when orphaned atomic-write temporaries
    (``*.tmp.<pid>.<tid>``, left by spill writers that were killed
    mid-write — every merge runs only after all tasks resolved) are
    swept from the spill and output directories, so retried fleets do
    not accumulate litter next to their caches.
    """
    for directory in sorted({os.path.dirname(p) for p in spill_paths}):
        sweep_orphan_tmp(directory)
    merged = EvaluationCache()
    for path in spill_paths:
        merged.load(path)
    sweep_orphan_tmp(os.path.dirname(out_path))
    merged.save(out_path)
    merged.path = out_path
    return merged


def aggregate_stats(shard_results: list) -> dict:
    """Run-level statistics: unit counts and per-shard timing."""
    per_shard = []
    units = 0
    for shard in shard_results:
        units += len(shard.units)
        per_shard.append(
            {
                "shard": shard.index,
                "attempt": shard.attempt,
                "units": len(shard.units),
                "elapsed_s": shard.elapsed_s,
                "evaluations": sum(len(u.history) for u in shard.units),
            }
        )
    return {
        "shards": len(shard_results),
        "units": units,
        "per_shard": per_shard,
        "critical_path_s": max((s["elapsed_s"] for s in per_shard), default=0.0),
        "total_work_s": sum(s["elapsed_s"] for s in per_shard),
    }


def merge_obs(shard_results: list) -> dict:
    """Fold per-shard observability payloads into one fleet view.

    Returns ``{"spans", "metrics", "timeline"}``: every shard's span
    events pooled onto one wall-clock timeline (shards stamp spans with
    :func:`time.time`, so cross-process events line up), the merged
    metrics snapshot (counters and histograms sum — the per-unit span
    count check in the acceptance tests reads
    ``repro_spans_total{name="distrib.unit"}`` here), and a
    critical-path summary per shard.  All three are empty when the run
    was untraced — ``REPRO_OBS`` unset ships empty payloads.
    """
    spans: list = []
    snapshots: list = []
    lanes: list = []
    for shard in sorted(shard_results, key=lambda s: (s.index, s.attempt)):
        spans.extend(shard.spans)
        if shard.metrics:
            snapshots.append(shard.metrics)
        if shard.spans:
            lanes.append({
                "shard": shard.index,
                "attempt": shard.attempt,
                "spans": len(shard.spans),
                "start": min(e["ts"] for e in shard.spans),
                "end": max(e["ts"] + e["dur"] for e in shard.spans),
                "busy_s": sum(e["dur"] for e in shard.spans
                              if e["name"] == "distrib.unit"),
            })
    spans.sort(key=lambda e: (e["ts"], e.get("pid", 0), e.get("tid", 0)))
    timeline: dict = {"shards": lanes}
    if lanes:
        start = min(lane["start"] for lane in lanes)
        end = max(lane["end"] for lane in lanes)
        timeline["wall_s"] = end - start
        timeline["critical_path_s"] = max(
            lane["end"] - lane["start"] for lane in lanes
        )
    return {
        "spans": spans,
        "metrics": merge_snapshots(snapshots),
        "timeline": timeline,
    }


@dataclass
class DistributedReport:
    """What a sharded search hands back: the serial report plus the
    artifacts only a distributed run has (global fronts, merged cache,
    fleet statistics)."""

    report: CompileReport
    fronts: dict = field(default_factory=dict)   # model name -> [Evaluation]
    stats: dict = field(default_factory=dict)
    cache: "EvaluationCache | None" = None
    shard_results: list = field(default_factory=list)
    #: :func:`merge_obs` output — fleet spans/metrics/timeline (empty
    #: unless the run was traced with ``REPRO_OBS``).
    obs: dict = field(default_factory=dict)

    def summary(self) -> str:
        """The serial compile summary plus shard accounting."""
        lines = [self.report.summary()]
        if self.stats:
            lines.append(
                f"  shards: {self.stats['shards']} "
                f"({self.stats['units']} units, "
                f"critical path {self.stats['critical_path_s']:.1f}s "
                f"of {self.stats['total_work_s']:.1f}s total work)"
            )
        for name, front in sorted(self.fronts.items()):
            lines.append(f"  pareto[{name}]: {len(front)} non-dominated points")
        return "\n".join(lines)


def merge_results(
    spec: RunSpec,
    shard_results: list,
    datasets: "dict | None" = None,
) -> DistributedReport:
    """Merge shard outputs into a :class:`DistributedReport`.

    Validates coverage against a fresh :func:`~repro.distrib.scheduler.
    plan_units` — every planned unit accepted exactly once, nothing
    unplanned, full-budget histories — so a worker that silently dropped
    a family (or a stale result from a different plan, or a retry the
    driver failed to deduplicate) fails loudly instead of quietly
    changing the winner.  The check is attempt-blind on purpose: a run
    completes iff each planned unit has exactly one accepted result, no
    matter how many attempts it took.  Then reduces multi-start
    trajectories
    family-by-family, picks winners under the serial rule, rebuilds the
    winning pipelines locally, and re-filters Pareto fronts across
    shards.  Cache spills merge separately via :func:`merge_spills`
    (they live on disk, keyed by family context).
    """
    # -- coverage ------------------------------------------------------------
    by_unit: dict = {}
    for shard in sorted(shard_results, key=lambda s: s.index):
        for unit in shard.units:
            key = (unit.model_index, unit.family_index, unit.start)
            if key in by_unit:
                raise DistributionError(
                    f"unit {key} reported by two shards — bad partition "
                    "or an unreconciled retry"
                )
            by_unit[key] = unit
    for (model_index, family_index, start), unit in by_unit.items():
        if len(unit.history) != spec.budget:
            raise DistributionError(
                f"unit {(model_index, family_index, start)} returned "
                f"{len(unit.history)} evaluations, expected {spec.budget}"
            )
    datasets = {} if datasets is None else datasets
    planned = {
        (u.model_index, u.family_index, u.start): u.algorithm
        for u in plan_units(spec, datasets=datasets)
    }
    missing = sorted(set(planned) - set(by_unit))
    unplanned = sorted(set(by_unit) - set(planned))
    if missing or unplanned:
        raise DistributionError(
            "shard results do not match the plan — "
            f"missing units: {missing}, unplanned units: {unplanned}"
        )
    mismatched = sorted(
        key for key, unit in by_unit.items()
        if unit.algorithm != planned[key]
    )
    if mismatched:
        raise DistributionError(
            f"shard results name the wrong algorithm for units {mismatched}"
        )

    platform = spec.build_platform(datasets=datasets)
    backend = platform.backend()
    constraints = platform.constraints()
    resource_key = PRIMARY_RESOURCE.get(spec.target)

    reports: dict = {}
    fronts: dict = {}
    for model_index, entry in enumerate(spec.models):
        model_units = [u for u in by_unit.values() if u.model_index == model_index]
        families = sorted({(u.family_index, u.algorithm) for u in model_units})

        candidate_results: dict = {}
        for family_index, algorithm in families:
            starts = sorted(
                (u for u in model_units if u.family_index == family_index),
                key=lambda u: u.start,
            )
            candidate_results[algorithm] = reduce_starts(
                [u.result for u in starts]
            )

        candidates = [algorithm for _, algorithm in families]
        dataset = (datasets or {}).get(model_index)
        if dataset is None:
            dataset = entry.dataset.materialize()
        model = entry.to_model(dataset)

        def evaluator_for(algorithm, model=model, dataset=dataset,
                          model_index=model_index):
            return ModelEvaluator(
                model,
                dataset,
                algorithm,
                backend,
                constraints,
                seed=unit_model_seed(spec, model_index),
                train_epochs=spec.train_epochs,
            )

        reports[entry.name] = winning_model_report(
            model, candidates, candidate_results, evaluator_for, spec.budget
        )
        if resource_key:
            fronts[entry.name] = merge_fronts(
                [[u.history[i] for i in u.front] for u in model_units],
                resource_key,
            )

    report = compose_report(platform, reports, spec.seed)
    return DistributedReport(
        report=report,
        fronts=fronts,
        stats=aggregate_stats(shard_results),
        shard_results=list(shard_results),
        obs=merge_obs(shard_results),
    )


def merge_shard_spill_dirs(
    shard_spill_dirs: list, cache_dir: str
) -> "EvaluationCache | None":
    """Merge per-shard spill directories into ``cache_dir``.

    Spill files are keyed by (model, family, context) in their basename,
    so files sharing a basename across shards describe the same search
    context; each basename group folds last-writer-wins in shard order
    into ``cache_dir/<basename>``.  Returns a cache holding the union of
    every merged entry (or ``None`` when nothing spilled).
    """
    grouped: dict = {}
    for shard_dir in shard_spill_dirs:
        if not shard_dir or not os.path.isdir(shard_dir):
            continue
        # Shard workers write spills with atomic_write_json; a worker
        # killed mid-write (the reaper's whole reason to exist) leaves
        # its *.tmp.<pid>.<tid> behind.  All writers are done by merge
        # time, so sweep before grouping.
        sweep_orphan_tmp(shard_dir)
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".json"):
                grouped.setdefault(name, []).append(os.path.join(shard_dir, name))
    if not grouped:
        return None
    union = EvaluationCache()
    for name, paths in sorted(grouped.items()):
        merge_spills(paths, os.path.join(cache_dir, name))
        union.load(os.path.join(cache_dir, name))
    return union
