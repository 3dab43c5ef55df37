"""Constrained Bayesian optimization (the HyperMapper substitute).

The paper formulates design-space exploration as constrained black-box
optimization and configures HyperMapper with a random-forest surrogate,
Expected Improvement, and a uniform random initialization phase (§5).  This
package implements that stack from scratch:

* :mod:`repro.bayesopt.space` — typed parameters and the design space,
* :mod:`repro.bayesopt.surrogate` — the random-forest surrogate and
  feasibility model,
* :mod:`repro.bayesopt.acquisition` — EI and probability of feasibility,
* :mod:`repro.bayesopt.optimizer` — the optimization loop,
* :mod:`repro.bayesopt.cache` — persistent config-keyed evaluation memo,
* :mod:`repro.bayesopt.results` — evaluation history and incumbent curves.

Each loop runs serially.  A search runs in parallel one level up, by
sharding its (model, family, start) loops across workers with
:func:`repro.distrib.run_sharded`.
"""

from repro.bayesopt.acquisition import (
    expected_improvement,
    probability_of_feasibility,
)
from repro.bayesopt.cache import EvaluationCache
from repro.bayesopt.optimizer import BayesianOptimizer, RandomSearchOptimizer
from repro.bayesopt.results import Evaluation, OptimizationResult
from repro.bayesopt.space import (
    Categorical,
    DesignSpace,
    Integer,
    Ordinal,
    Real,
)
from repro.bayesopt.surrogate import RandomForestSurrogate

__all__ = [
    "Real",
    "Integer",
    "Ordinal",
    "Categorical",
    "DesignSpace",
    "RandomForestSurrogate",
    "expected_improvement",
    "probability_of_feasibility",
    "BayesianOptimizer",
    "RandomSearchOptimizer",
    "EvaluationCache",
    "Evaluation",
    "OptimizationResult",
]
