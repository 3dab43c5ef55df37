"""Multi-objective Bayesian optimization via random scalarizations.

HyperMapper treats multi-objective problems by optimizing random convex
combinations of the objectives (Paria et al., UAI 2019 — cited by the
paper), recovering an approximate Pareto front across iterations.  The
black box returns an :class:`Evaluation` whose ``metrics`` dict carries
one value per objective name; the scalarized value drives the surrogate
while the full vector is recorded for the front.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.results import Evaluation, OptimizationResult, coerce_evaluation
from repro.bayesopt.scalarization import RandomScalarizer, pareto_front
from repro.bayesopt.space import DesignSpace
from repro.errors import DesignSpaceError
from repro.rng import as_generator, derive


class MultiObjectiveBayesianOptimizer:
    """Scalarization-based multi-objective BO.

    Each iteration draws fresh Dirichlet weights, re-scalarizes the
    history, and lets a single-objective BO step pick the next point —
    so different iterations pull toward different regions of the front.

    Parameters
    ----------
    objective_names / minimize:
        the metric keys to read from each evaluation, and which of them
        are minimized (costs).
    """

    def __init__(
        self,
        space: DesignSpace,
        objective_fn: Callable[[dict], Evaluation],
        objective_names: list,
        minimize: "list | None" = None,
        warmup: int = 5,
        candidate_pool: int = 256,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if len(objective_names) < 2:
            raise DesignSpaceError(
                "multi-objective optimization needs >= 2 objectives; "
                "use BayesianOptimizer for one"
            )
        self.space = space
        self.objective_fn = objective_fn
        self.objective_names = list(objective_names)
        self._rng = as_generator(seed)
        self.scalarizer = RandomScalarizer(
            self.objective_names, minimize=minimize, seed=derive(self._rng, 1)
        )
        self.warmup = int(warmup)
        self.candidate_pool = int(candidate_pool)
        self._inner_seed = derive(self._rng, 2)

    def _values_of(self, evaluation: Evaluation) -> dict:
        missing = [n for n in self.objective_names if n not in evaluation.metrics]
        if missing:
            raise DesignSpaceError(
                f"evaluation metrics missing objectives {missing}; "
                f"present: {sorted(evaluation.metrics)}"
            )
        return {n: float(evaluation.metrics[n]) for n in self.objective_names}

    def run(self, budget: int) -> OptimizationResult:
        """Run ``budget`` evaluations; history objectives are scalarized
        values, metrics carry the raw objective vectors."""
        if budget < 1:
            raise DesignSpaceError(f"budget must be >= 1, got {budget}")
        result = OptimizationResult()
        seen: set = set()
        for iteration in range(budget):
            weights = self.scalarizer.resample()
            # Re-scalarize the full history under this iteration's weights
            # so the surrogate chases the current trade-off direction.
            rescored = OptimizationResult()
            for e in result.history:
                rescored.append(
                    Evaluation(
                        config=e.config,
                        objective=self.scalarizer.combine(self._values_of(e)),
                        feasible=e.feasible,
                        metrics=e.metrics,
                    )
                )
            inner = BayesianOptimizer(
                self.space,
                self.objective_fn,  # not called through inner; only suggest()
                warmup=self.warmup,
                candidate_pool=self.candidate_pool,
                seed=derive(self._inner_seed, iteration),
            )
            config = inner.suggest(rescored, seen)
            outcome = coerce_evaluation(config, self.objective_fn(config))
            values = self._values_of(outcome)
            outcome.metrics["scalarization_weights"] = tuple(float(w) for w in weights)
            outcome.objective = self.scalarizer.combine(values)
            result.append(outcome)
            seen.add(self.space.key(config))
        return result

    def front(self, result: OptimizationResult) -> list:
        """Pareto-optimal evaluations (feasible only, maximized objectives).

        Minimized objectives are sign-flipped before dominance testing.
        """
        feasible = result.feasible_history
        if not feasible:
            return []
        points = []
        for e in feasible:
            values = self._values_of(e)
            points.append(
                {
                    n: (-values[n] if n in self.scalarizer.minimize else values[n])
                    for n in self.objective_names
                }
            )
        return [feasible[i] for i in pareto_front(points, self.objective_names)]
