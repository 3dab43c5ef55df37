"""Parallel batched evaluation for the BO loop (the Figure-2 "parallel
candidate runs" made real).

The dominant cost of a Homunculus search is the black box itself — each
candidate configuration pays a full train -> lower -> score pass.  This
module fans those evaluations out over a worker pool *without changing
the search trajectory*: :class:`ParallelEvaluator` produces, seed for
seed, the exact evaluation history that the serial
:meth:`BayesianOptimizer.run <repro.bayesopt.optimizer.BayesianOptimizer.run>`
loop would, as long as the objective is a deterministic function of the
configuration (which :class:`~repro.core.evaluator.ModelEvaluator`
guarantees by deriving every training seed from the config contents).

How bit-for-bit equivalence survives parallelism
------------------------------------------------
A ``suggest`` call consumes a fixed amount of random state regardless of
the objective values in the history.  So a :meth:`fork
<repro.bayesopt.optimizer.BayesianOptimizer.fork>` of the live optimizer
stays RNG-aligned with it while planning ahead with constant-liar
stand-in outcomes:

1. *Plan*: the fork suggests a batch.  Its first element is computed
   from exactly the live history and RNG, so it **is** the next serial
   suggestion; later elements are speculation (they used lies).
2. *Prefetch*: the whole batch is evaluated concurrently on the pool
   and the results land in an :class:`~repro.bayesopt.cache.EvaluationCache`.
3. *Replay*: the live loop re-enacts the serial algorithm.  The first
   step adopts the fork's post-suggestion RNG snapshot (no duplicate
   surrogate fit) and pulls its result from the cache.  Each following
   step runs the real ``suggest``; on a cache hit the prefetched result
   is appended instantly, on a miss the configuration is evaluated and
   the engine re-plans from the now-longer true history.

Speculative evaluations that never get used stay in the cache — a later
round (or a later search sharing the cache) may still claim them.

When the replay *diverges* (the real ``suggest`` asks for a config the
plan did not prefetch), the divergence refills the pool instead of
paying for the true config inline while the workers idle: the true
config is submitted together with a fresh believer batch planned by a
new fork over the history-to-be (true history plus a surrogate stand-in
for the in-flight config).  Those entries land in the cache where the
next planning round's replay can hit them, without touching the live
optimizer's RNG, so the trajectory stays bit-identical.

Worker seeding
--------------
Workers get derived RNG seeds: thread workers share the parent process
(objectives must derive per-config seeds, as ``ModelEvaluator`` does);
process workers re-seed numpy's global generator from the engine seed
mixed with the worker PID at pool start, so legacy ``np.random`` users
do not collide.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.bayesopt.cache import EvaluationCache, config_key
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.results import OptimizationResult, coerce_evaluation
from repro.errors import DesignSpaceError
from repro.obs.registry import enabled as obs_enabled, get_registry
from repro.obs.trace import get_tracer
from repro.rng import derive


def _worker_seed_root(seed) -> int:
    """An integer root for worker seeding, from any seed-like value.

    Peeks a copy of a Generator rather than consuming its state, so the
    engine seed always reaches the workers no matter what form it took.
    """
    if isinstance(seed, np.random.Generator):
        return int(copy.deepcopy(seed).integers(0, 2**31))
    if seed is None:
        return 0
    return int(seed)


def _seed_process_worker(base_seed: int) -> None:
    """Give each process worker a derived seed for numpy's global RNG."""
    mixed = int(derive(int(base_seed), os.getpid()).integers(0, 2**32))
    np.random.seed(mixed)


def _eval_with_span(objective_fn, config: dict):
    """Run one black-box evaluation under a ``bo.eval`` span.

    Module-level (not a bound method) so the process executor pickles
    only the objective — never the evaluator.  The span lands on the
    *worker's* process tracer: thread workers share the caller's, while
    process workers append to their own sink (line-atomic ``O_APPEND``,
    so interleaving is safe).  Submitted only when ``REPRO_OBS`` is on;
    the return value is exactly the objective's, so histories cannot
    differ from the unwrapped path.
    """
    with get_tracer().span("bo.eval"):
        return objective_fn(config)


class ParallelEvaluator:
    """Batched, cached, pool-backed drop-in for ``BayesianOptimizer.run``.

    Example::

        engine = ParallelEvaluator(space, objective, n_workers=4, seed=0)
        result = engine.run(budget=20)    # == BayesianOptimizer(...).run(20)
        engine.stats["speculative_hits"]  # how often speculation paid off

    ``stats`` after a run holds ``rounds`` (planning rounds), ``evaluated``
    (real black-box calls), ``speculative_hits`` (prefetched suggestions
    the serial replay actually used), ``replans`` (speculation
    divergences), ``respeculations`` (divergences that refilled the pool
    with a fresh believer batch) and ``speculative_failures`` (discarded
    speculative errors) — the shard scheduler in :mod:`repro.distrib`
    aggregates these per run.

    Parameters
    ----------
    space / objective_fn:
        as for :class:`~repro.bayesopt.optimizer.BayesianOptimizer`.
    n_workers:
        pool width for concurrent black-box evaluations.
    batch_size:
        configurations suggested per planning round (default:
        ``n_workers``).
    cache:
        an :class:`EvaluationCache` to consult and fill; a fresh
        in-memory cache is created when omitted.  Pre-populated caches
        (e.g. loaded from a JSON spill) short-circuit matching
        evaluations entirely.
    executor:
        ``"thread"`` (default; right for numpy-heavy or I/O-bound
        objectives) or ``"process"`` (for pure-Python CPU-bound
        objectives; requires a picklable objective).
    warmup / candidate_pool / xi / dedupe / seed:
        forwarded to the underlying :class:`BayesianOptimizer`.
    """

    def __init__(
        self,
        space,
        objective_fn: Callable[[dict], "object"],
        n_workers: int = 1,
        batch_size: "int | None" = None,
        warmup: int = 5,
        candidate_pool: int = 256,
        xi: float = 0.0,
        dedupe: bool = True,
        seed: "int | np.random.Generator | None" = None,
        cache: "EvaluationCache | None" = None,
        executor: str = "thread",
    ) -> None:
        if n_workers < 1:
            raise DesignSpaceError(f"n_workers must be >= 1, got {n_workers}")
        if batch_size is not None and batch_size < 1:
            raise DesignSpaceError(f"batch_size must be >= 1, got {batch_size}")
        if executor not in ("thread", "process"):
            raise DesignSpaceError(f"executor must be 'thread' or 'process', got {executor!r}")
        self.n_workers = int(n_workers)
        self.batch_size = int(batch_size) if batch_size is not None else self.n_workers
        self.objective_fn = objective_fn
        self.cache = cache if cache is not None else EvaluationCache()
        self.executor = executor
        self._seed_root = _worker_seed_root(seed)
        self.optimizer = BayesianOptimizer(
            space,
            objective_fn,
            warmup=warmup,
            candidate_pool=candidate_pool,
            xi=xi,
            dedupe=dedupe,
            seed=seed,
        )
        #: round/speculation statistics of the latest :meth:`run`.
        self.stats: dict = {}
        # Captured once per run() so the per-submit check is one
        # attribute read, never an environment lookup.
        self._traced = False

    @property
    def space(self):
        return self.optimizer.space

    # ------------------------------------------------------------------ #
    def _make_pool(self):
        if self.executor == "process":
            return ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_seed_process_worker,
                initargs=(self._seed_root,),
            )
        return ThreadPoolExecutor(max_workers=self.n_workers)

    def _submit(self, pool, config: dict, submitted: set, pending: list) -> None:
        """Queue one uncached config for evaluation (pipelined prefetch)."""
        key = config_key(config)
        if key in submitted or config in self.cache:
            return
        submitted.add(key)
        if self._traced:
            future = pool.submit(_eval_with_span, self.objective_fn, config)
        else:
            future = pool.submit(self.objective_fn, config)
        pending.append((config, future))

    def _collect(self, pending: list, required_key: str) -> None:
        """Drain prefetch futures into the cache.

        Only the entry for ``required_key`` (the exact next serial
        suggestion) propagates exceptions — the serial loop would have hit
        them too.  Purely speculative configs that fail are discarded: the
        serial loop might never evaluate them, so they must not abort the
        run.
        """
        for config, future in pending:
            if config_key(config) == required_key:
                self.cache.put(config, coerce_evaluation(config, future.result()))
                self.stats["evaluated"] += 1
                continue
            try:
                self.cache.put(config, coerce_evaluation(config, future.result()))
                self.stats["evaluated"] += 1
            except Exception:
                self.stats["speculative_failures"] += 1

    def run(self, budget: int) -> OptimizationResult:
        """Run ``budget`` evaluations; history is identical to the serial loop."""
        if budget < 1:
            raise DesignSpaceError(f"budget must be >= 1, got {budget}")
        opt = self.optimizer
        result = OptimizationResult()
        seen: set = set()
        self._traced = obs_enabled()
        self.stats = {
            "rounds": 0,
            "evaluated": 0,
            "speculative_hits": 0,
            "replans": 0,
            "respeculations": 0,
            "speculative_failures": 0,
        }
        with self._make_pool() as pool:
            while len(result) < budget:
                want = min(self.batch_size, budget - len(result))
                self.stats["rounds"] += 1

                # Plan: fork suggests the batch; element 1 is exact.  Each
                # suggestion is submitted to the pool the moment it exists,
                # so later (speculative) surrogate fits overlap with the
                # first evaluations already running.
                planner = opt.fork()
                suggestions = planner.iter_suggestions(result, want, set(seen))
                first = next(suggestions)
                state_after_first = planner.snapshot()
                # Already cached => an earlier round's speculation (or a
                # shared spill) prefetched the exact next serial suggestion.
                if first in self.cache:
                    self.stats["speculative_hits"] += 1
                planned = [first]
                submitted: set = set()
                pending: list = []
                self._submit(pool, first, submitted, pending)
                for config in suggestions:
                    planned.append(config)
                    self._submit(pool, config, submitted, pending)
                self._collect(pending, config_key(first))

                # Replay step 1: adopt the fork's post-suggestion RNG state —
                # equivalent to (and cheaper than) re-running suggest().
                opt.restore(state_after_first)
                self._append(result, seen, first, self.cache.get(first))

                # Replay the rest serially until speculation diverges.
                for speculated in planned[1:]:
                    if len(result) >= budget:
                        break
                    config = opt.suggest(result, seen)
                    evaluation = self.cache.get(config)
                    if evaluation is not None:
                        if config_key(config) == config_key(speculated):
                            self.stats["speculative_hits"] += 1
                        self._append(result, seen, config, evaluation)
                        continue
                    # Diverged: evaluate the true suggestion, then re-plan
                    # from the longer history.
                    self.stats["replans"] += 1
                    self._respeculate(
                        pool, opt, result, seen, config,
                        min(self.batch_size - 1, budget - len(result) - 1),
                    )
                    self._append(result, seen, config, self.cache.get(config))
                    break
        if self._traced:
            events = get_registry().counter(
                "repro_bo_events_total",
                help="parallel-evaluator events (rounds, cache hits, "
                     "replans, respeculations)",
                labels=("event",),
            )
            for event, count in self.stats.items():
                events.labels(event=event).inc(count)
        return result

    def _respeculate(
        self, pool, opt, result, seen: set, config: dict, n_spec: int
    ) -> None:
        """Refill the pool at a divergence instead of paying for it idle.

        The serial replay must evaluate ``config`` next; rather than
        running it inline while the workers sit empty, submit it to the
        pool together with a fresh believer batch planned over the
        history-to-be — the true history plus a surrogate stand-in for
        the in-flight ``config``.  Planning happens on a fork of the
        live optimizer (the fork's RNG starts exactly where the next
        round's planner will), so the live random streams — and with
        them bit-identity to the serial loop — are untouched.  The
        speculative results land in the cache, where the next round's
        replay picks them up; only ``config`` itself may propagate an
        evaluation error, exactly as the serial loop would.
        """
        submitted: set = set()
        pending: list = []
        self._submit(pool, config, submitted, pending)
        if n_spec > 0:
            replanner = opt.fork()
            virtual = OptimizationResult(history=list(result.history))
            virtual.append(replanner._stand_in(config, virtual.best_objective))
            spec_seen = set(seen)
            spec_seen.add(self.space.key(config))
            for spec in replanner.iter_suggestions(virtual, n_spec, spec_seen):
                self._submit(pool, spec, submitted, pending)
            self.stats["respeculations"] += 1
        self._collect(pending, config_key(config))

    def _append(self, result: OptimizationResult, seen: set, config: dict, evaluation) -> None:
        result.append(evaluation)
        seen.add(self.space.key(config))
