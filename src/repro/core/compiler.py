"""The compiler driver: ``repro.generate(platform)``.

Implements the paper's Figure-2 flow per scheduled model:

1. candidate models selection (prefilter algorithm families),
2. automated design-space creation,
3. candidate runs — one constrained-BO loop per family (run in
   parallel by sharding them with :func:`repro.distrib.run_sharded`),
4. final model selection & code generation (re-train the incumbent and
   emit backend sources),

then composes the schedule: per-model resources are summed over distinct
models (shared pipelines placed once), and the composed pipeline must fit
the device and satisfy the throughput-consistency rule of §3.2.1.
"""

from __future__ import annotations

import hashlib
import os

from repro.alchemy.platforms import PlatformSpec
from repro.bayesopt.cache import EvaluationCache
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.core.candidates import select_candidates
from repro.core.designspace_builder import build_design_space
from repro.core.evaluator import ModelEvaluator
from repro.core.fusion import fuse_datasets, should_fuse
from repro.core.reports import CompileReport, ModelReport
from repro.errors import InfeasibleError, SpecificationError
from repro.rng import derive

__all__ = [
    "generate",
    "CompileReport",
    "family_cache_path",
    "model_search_seed",
    "family_search_seed",
    "pick_winner",
    "reduce_starts",
    "finalize_model_report",
    "winning_model_report",
    "compose_report",
]


def model_search_seed(seed: int, index: int) -> int:
    """The per-model seed ``generate`` derives for the ``index``-th model.

    Exposed so that out-of-process executors (the shard scheduler in
    :mod:`repro.distrib`) reproduce the serial derivation exactly — a
    shard that re-derived seeds differently would silently change every
    search trajectory.
    """
    return int(derive(int(seed), int(index)).integers(0, 2**31))


def family_search_seed(model_seed: int, family_index: int):
    """The BO seed for the ``family_index``-th candidate family.

    Derived from the family *index*, not the execution order, so results
    are identical no matter how many families run concurrently — or on
    which machine a shard runs them.
    """
    return derive(int(model_seed), 1000 + int(family_index))


def family_cache_path(
    cache_dir: str,
    model_name: str,
    algorithm: str,
    dataset,
    backend,
    constraints: dict,
    seed: int,
    train_epochs: int,
) -> str:
    """Spill-file path for one (model, family) search context.

    Spill files are keyed by the evaluation context, not just the
    model/family name: an Evaluation is only reusable if it was produced
    under the same seed, training length, backend, and constraints on
    the same dataset.  The dataset is identified by shape **and** a
    content digest — two same-shaped datasets with different values must
    not share cached scores.  A run with any of those changed gets a
    fresh spill instead of stale results.
    """
    context = "|".join(
        [
            model_name,
            algorithm,
            str(seed),
            str(train_epochs),
            backend.name,
            repr(sorted(constraints.items())),
            f"{dataset.train_x.shape}x{dataset.test_x.shape}",
            dataset.content_digest(),
        ]
    )
    digest = hashlib.md5(context.encode()).hexdigest()[:10]
    return os.path.join(cache_dir, f"{model_name}_{algorithm}_{digest}.json")


def _search_one_family(
    model_spec,
    dataset,
    backend,
    constraints: dict,
    algorithm: str,
    index: int,
    budget: int,
    warmup: int,
    train_epochs: int,
    seed: int,
    cache_dir: "str | None",
    family_seed=None,
):
    """One constrained-BO loop for one algorithm family.

    Returns ``(evaluator, result)``.  The family seed is derived from the
    family index (not the execution order), so results are identical no
    matter where or in which order the families run; a shard scheduler
    may pass an explicit ``family_seed`` (e.g. a multi-start salt) to
    override the default derivation.
    """
    limits = constraints.get("resources", {})
    space = build_design_space(algorithm, dataset, backend, limits)
    cache_path = None
    if cache_dir:
        cache_path = family_cache_path(
            cache_dir, model_spec.name, algorithm, dataset, backend,
            constraints, seed=seed, train_epochs=train_epochs,
        )
    cache = EvaluationCache(path=cache_path)
    evaluator = ModelEvaluator(
        model_spec,
        dataset,
        algorithm,
        backend,
        constraints,
        seed=seed,
        train_epochs=train_epochs,
        cache=cache,
    )
    if family_seed is None:
        family_seed = family_search_seed(seed, index)
    result = BayesianOptimizer(
        space,
        evaluator.evaluate,
        warmup=min(warmup, budget),
        seed=family_seed,
    ).run(budget)
    if cache_path is not None:
        cache.save()
    return evaluator, result


def pick_winner(candidates: list, results: dict, model_name: str, budget: int):
    """Final model selection: the best feasible incumbent across families.

    ``results`` maps algorithm name to its
    :class:`~repro.bayesopt.results.OptimizationResult`; ties break
    toward the earlier candidate (strict ``>`` in candidate order),
    which is the serial ``generate`` rule — shard merging reuses this
    helper so a distributed run can never pick a different winner.
    Returns ``(algorithm, best_evaluation)``.
    """
    best_algorithm = None
    best_eval = None
    for algorithm in candidates:
        incumbent = results[algorithm].best
        if incumbent is not None and (
            best_eval is None or incumbent.objective > best_eval.objective
        ):
            best_algorithm = algorithm
            best_eval = incumbent
    if best_eval is None:
        raise InfeasibleError(
            f"no feasible configuration found for model {model_name!r} "
            f"within budget {budget} (candidates: {candidates})"
        )
    return best_algorithm, best_eval


def reduce_starts(results: list):
    """Reduce multi-start trajectories of one family to a single result.

    ``results`` is the family's
    :class:`~repro.bayesopt.results.OptimizationResult` list in start
    order (start 0 — the serial trajectory — first).  Keeps the start
    with the best feasible incumbent; ties break toward the lower start
    index, so a one-start run reduces to exactly the serial result.
    This is the distributed multi-start rule — kept next to
    :func:`pick_winner` so both halves of winner selection live in one
    module.
    """
    if not results:
        raise InfeasibleError("reduce_starts needs at least one result")
    chosen = results[0]
    for contender in results[1:]:
        if contender.best_objective is None:
            continue
        if (
            chosen.best_objective is None
            or contender.best_objective > chosen.best_objective
        ):
            chosen = contender
    return chosen


def finalize_model_report(
    model_spec, algorithm: str, evaluator, best_eval, candidate_results: dict
) -> ModelReport:
    """Re-train + re-lower the incumbent and assemble its report.

    The rebuild is deterministic (training seeds derive from the config
    contents), so the driver of a distributed run can regenerate the
    winning pipeline locally from nothing but the winning configuration.
    The report keeps that pipeline (:attr:`ModelReport.pipeline`): this
    is the one place a compile trains its winner.
    """
    _, pipeline, _ = evaluator.rebuild(best_eval.config)
    return ModelReport(
        name=model_spec.name,
        algorithm=algorithm,
        best_config=dict(best_eval.config),
        objective=best_eval.objective,
        float_objective=best_eval.metrics.get("float_objective", best_eval.objective),
        metric=model_spec.primary_metric,
        feasible=True,
        resources=dict(pipeline.resources.usage),
        performance=pipeline.performance,
        n_params=int(pipeline.metadata.get("n_params", 0)),
        sources=dict(pipeline.sources),
        metadata=dict(pipeline.metadata),
        optimization=candidate_results[algorithm],
        candidate_results=candidate_results,
        pipeline=pipeline,
    )


def winning_model_report(
    model_spec, candidates: list, candidate_results: dict, evaluator_for, budget: int
) -> ModelReport:
    """Pick the cross-family winner and build its final report.

    The composition of :func:`pick_winner` and
    :func:`finalize_model_report` — the whole "final model selection &
    code generation" step as one function, shared verbatim by the
    serial driver, the shard merge (:mod:`repro.distrib.merge`), and
    the fabric planner, so no caller can drift from the serial rule.
    ``evaluator_for`` maps an algorithm name to a ready
    :class:`~repro.core.evaluator.ModelEvaluator`; it is a callable
    (not a dict) so drivers that rebuild evaluators on demand only
    construct the winner's.
    """
    best_algorithm, best_eval = pick_winner(
        candidates, candidate_results, model_spec.name, budget
    )
    return finalize_model_report(
        model_spec, best_algorithm, evaluator_for(best_algorithm), best_eval,
        candidate_results,
    )


def _search_one_model(
    model_spec,
    dataset,
    backend,
    constraints: dict,
    budget: int,
    warmup: int,
    train_epochs: int,
    seed: int,
    cache_dir: "str | None" = None,
) -> ModelReport:
    """Run candidate selection + BO for one model; build its final report.

    The candidate algorithm families search one after another; sharded
    runs (:func:`repro.distrib.run_sharded`) spread them across workers
    instead and reproduce this trajectory exactly.
    """
    limits = constraints.get("resources", {})
    candidates = select_candidates(model_spec, dataset, backend, limits)
    evaluators: dict = {}
    candidate_results: dict = {}
    for index, algorithm in enumerate(candidates):
        evaluators[algorithm], candidate_results[algorithm] = _search_one_family(
            model_spec, dataset, backend, constraints, algorithm, index,
            budget=budget, warmup=warmup, train_epochs=train_epochs, seed=seed,
            cache_dir=cache_dir,
        )
    # Final model selection & code generation: deterministically rebuild
    # the incumbent and emit its backend sources.
    return winning_model_report(
        model_spec, candidates, candidate_results, evaluators.__getitem__, budget
    )


def _apply_fusion(models: list, fuse: bool) -> list:
    """Optionally fuse dataset-compatible models into one (§3.2.5).

    Returns ``[(model_spec, dataset)]`` pairs; fused entries reuse the
    first spec's objectives and a merged dataset.
    """
    pairs = [(m, m.load_dataset()) for m in models]
    if not fuse or len(pairs) < 2:
        return pairs
    fused: list = []
    consumed = [False] * len(pairs)
    for i in range(len(pairs)):
        if consumed[i]:
            continue
        spec_i, ds_i = pairs[i]
        for j in range(i + 1, len(pairs)):
            if consumed[j]:
                continue
            spec_j, ds_j = pairs[j]
            if (
                spec_i.primary_metric == spec_j.primary_metric
                and should_fuse(ds_i, ds_j)
            ):
                ds_i = fuse_datasets(ds_i, ds_j, name=f"{spec_i.name}+{spec_j.name}")
                consumed[j] = True
        fused.append((spec_i, ds_i))
        consumed[i] = True
    return fused


def _sum_resources(reports: list) -> dict:
    total: dict = {}
    for report in reports:
        for key, value in report.resources.items():
            total[key] = total.get(key, 0) + value
    return {k: round(v, 4) for k, v in total.items()}


def compose_report(platform: PlatformSpec, reports: dict, seed: int) -> CompileReport:
    """Compose per-model reports into the platform-level verdict.

    Sums resources over distinct models (shared pipelines placed once)
    and applies the throughput-consistency rule of §3.2.1.  Shared with
    :mod:`repro.distrib`, whose merge step re-assembles a
    :class:`CompileReport` from shard results.
    """
    constraints = platform.constraints()
    total = _sum_resources(list(reports.values()))
    limits = constraints.get("resources", {})
    fits = all(
        total.get(name, 0) <= limit for name, limit in limits.items()
    )
    # Throughput consistency across the composed schedule (§3.2.1).
    per_model = {
        name: report.performance.throughput_gpps for name, report in reports.items()
    }
    composed = platform.schedule_root.effective_throughput(per_model)
    min_tput = constraints.get("performance", {}).get("throughput")
    tput_ok = composed is None or min_tput is None or composed >= min_tput
    return CompileReport(
        target=platform.target,
        constraints=constraints,
        schedule=platform.schedule_root.describe(),
        models=reports,
        total_resources=total,
        feasible=bool(fits and tput_ok and all(r.feasible for r in reports.values())),
        seed=seed,
    )


def generate(
    platform: PlatformSpec,
    budget: int = 20,
    warmup: int = 5,
    train_epochs: int = 30,
    seed: int = 0,
    fuse: bool = False,
    cache_dir: "str | None" = None,
) -> CompileReport:
    """Compile every model scheduled on ``platform`` (the paper's
    ``homunculus.generate``).

    Parameters
    ----------
    budget / warmup:
        BO evaluations per candidate algorithm family, and how many of
        them are uniform random warmup.
    train_epochs:
        epochs per DNN candidate training run.
    seed:
        global determinism root; every training/search RNG derives from it.
    fuse:
        attempt model fusion across scheduled models with shared features.
    cache_dir:
        directory for per-family JSON evaluation-cache spills; reused by
        later runs to warm-start identical configurations.

    The search runs serially in this process.  To spread it over
    workers or machines, describe it as a
    :class:`~repro.distrib.runspec.RunSpec` and call
    :func:`repro.distrib.run_sharded`, which produces the same report.
    """
    if not isinstance(platform, PlatformSpec):
        raise SpecificationError("generate() expects a PlatformSpec")
    if platform.schedule_root is None:
        raise SpecificationError("no models scheduled; call platform.schedule(...)")
    if budget < 1:
        raise SpecificationError(f"budget must be >= 1, got {budget}")
    if cache_dir is not None:
        # Fail before the search runs, not when the first spill saves.
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise SpecificationError(f"unusable cache_dir {cache_dir!r}: {exc}") from exc
    backend = platform.backend()
    constraints = platform.constraints()
    pairs = _apply_fusion(platform.models(), fuse)

    reports: dict = {}
    for index, (model_spec, dataset) in enumerate(pairs):
        reports[model_spec.name] = _search_one_model(
            model_spec,
            dataset,
            backend,
            constraints,
            budget=budget,
            warmup=warmup,
            train_epochs=train_epochs,
            seed=model_search_seed(seed, index),
            cache_dir=cache_dir,
        )
    return compose_report(platform, reports, seed)
