"""The constrained Bayesian-optimization loop.

Mirrors the paper's HyperMapper configuration (§5): a uniform random
initialization phase, then iterations that fit a random-forest surrogate on
the objective, a random-forest classifier on feasibility, and pick the next
configuration by feasibility-weighted Expected Improvement over a sampled
candidate pool (the standard discrete-space approximation to maximizing the
acquisition).

The black box is any callable ``f(config) -> Evaluation`` (or a bare float,
treated as a feasible objective).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bayesopt.acquisition import constrained_expected_improvement
from repro.bayesopt.results import Evaluation, OptimizationResult, coerce_evaluation
from repro.bayesopt.space import DesignSpace
from repro.bayesopt.surrogate import FeasibilityModel, RandomForestSurrogate
from repro.errors import DesignSpaceError
from repro.rng import as_generator, derive


class RandomSearchOptimizer:
    """Uniform random search baseline (the BO ablation point)."""

    def __init__(
        self,
        space: DesignSpace,
        objective_fn: Callable[[dict], "Evaluation | float"],
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.space = space
        self.objective_fn = objective_fn
        self._rng = as_generator(seed)

    def run(self, budget: int) -> OptimizationResult:
        """Evaluate ``budget`` uniform random configurations."""
        if budget < 1:
            raise DesignSpaceError(f"budget must be >= 1, got {budget}")
        result = OptimizationResult()
        for config in self.space.sample(self._rng, budget):
            outcome = coerce_evaluation(config, self.objective_fn(config))
            result.append(outcome)
        return result


class BayesianOptimizer:
    """Feasibility-constrained BO with an RF surrogate and EI acquisition.

    Parameters
    ----------
    space / objective_fn:
        the design space and the black box to maximize.
    warmup:
        number of uniform random evaluations before model-guided ones.
    candidate_pool:
        configurations sampled per iteration to score with the acquisition.
    xi:
        EI exploration margin.
    dedupe:
        skip configurations that were already evaluated (useful for small
        discrete spaces where resampling is likely).
    """

    def __init__(
        self,
        space: DesignSpace,
        objective_fn: Callable[[dict], "Evaluation | float"],
        warmup: int = 5,
        candidate_pool: int = 256,
        xi: float = 0.0,
        dedupe: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if warmup < 1:
            raise DesignSpaceError(f"warmup must be >= 1, got {warmup}")
        if candidate_pool < 1:
            raise DesignSpaceError(f"candidate_pool must be >= 1, got {candidate_pool}")
        self.space = space
        self.objective_fn = objective_fn
        self.warmup = int(warmup)
        self.candidate_pool = int(candidate_pool)
        self.xi = float(xi)
        self.dedupe = bool(dedupe)
        self._rng = as_generator(seed)
        self._surrogate_seed = derive(self._rng, 0xBEEF)

    # ------------------------------------------------------------------ #
    def _evaluate(self, config: dict, result: OptimizationResult, seen: set) -> None:
        outcome = coerce_evaluation(config, self.objective_fn(config))
        result.append(outcome)
        seen.add(self.space.key(config))

    def _fresh_candidates(self, seen: set) -> list[dict]:
        """Sample the candidate pool, dropping already-evaluated configs."""
        pool = self.space.sample(self._rng, self.candidate_pool)
        if not self.dedupe:
            return pool
        fresh = [c for c in pool if self.space.key(c) not in seen]
        if fresh:
            return fresh
        # Finite space may be exhausted near the end; fall back to the pool.
        return pool

    def suggest(self, result: OptimizationResult, seen: "set | None" = None) -> dict:
        """Return the next configuration to evaluate given history so far."""
        seen = seen if seen is not None else {self.space.key(e.config) for e in result.history}
        if len(result) < self.warmup:
            return self.space.sample(self._rng, 1)[0]
        X = self.space.encode_many([e.config for e in result.history])
        y = np.array([e.objective for e in result.history])
        feasible = np.array([e.feasible for e in result.history])

        surrogate = RandomForestSurrogate(seed=derive(self._surrogate_seed, len(result)))
        # Fit the objective surrogate on feasible points when possible —
        # infeasible configurations often report degenerate objectives.
        if feasible.any():
            surrogate.fit(X[feasible], y[feasible])
            best_feasible = float(y[feasible].max())
        else:
            surrogate.fit(X, y)
            best_feasible = None
        feas_model = FeasibilityModel(seed=derive(self._surrogate_seed, 7 * len(result)))
        feas_model.fit(X, feasible)

        candidates = self._fresh_candidates(seen)
        Xc = self.space.encode_many(candidates)
        mean, std = surrogate.predict(Xc)
        pof = feas_model.predict_proba(Xc)
        scores = constrained_expected_improvement(
            mean, std, best_feasible, pof, xi=self.xi
        )
        return candidates[int(np.argmax(scores))]

    def run(self, budget: int) -> OptimizationResult:
        """Run ``budget`` evaluations (warmup + model-guided) and return history."""
        if budget < 1:
            raise DesignSpaceError(f"budget must be >= 1, got {budget}")
        result = OptimizationResult()
        seen: set = set()
        for _ in range(budget):
            config = self.suggest(result, seen)
            self._evaluate(config, result, seen)
        return result
