"""Surrogate models for Bayesian optimization.

* :class:`RandomForestSurrogate` — the paper's choice ("Random Forests
  surrogate model, which is known to work well with systems workloads that
  require modeling of discrete parameters", §5); ``fit(X, y)`` and
  ``predict(X) -> (mean, std)``, the uncertainty being the across-tree
  spread.
* :class:`FeasibilityModel` — the probability that a configuration is
  feasible, the constraint factor of the acquisition function.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DesignSpaceError
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor


class RandomForestSurrogate:
    """Random-forest regression surrogate with across-tree uncertainty."""

    def __init__(
        self,
        n_estimators: int = 24,
        max_depth: int = 12,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self._forest = RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            max_features=None,
            bootstrap=True,
            seed=seed,
        )
        self._min_std = 1e-6

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestSurrogate":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] < 1:
            raise DesignSpaceError("surrogate needs at least one observation")
        self._forest.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean, std = self._forest.predict_with_std(np.asarray(X, dtype=float))
        return mean, np.maximum(std, self._min_std)


class FeasibilityModel:
    """Random-forest classifier estimating P(config is feasible).

    The paper encodes resource and network limits as feasibility constraints
    and lets the optimizer learn the feasible region; this model provides
    the probability-of-feasibility factor in the acquisition function.
    """

    def __init__(
        self,
        n_estimators: int = 24,
        max_depth: int = 12,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self._forest = RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            max_features=None,
            bootstrap=True,
            seed=seed,
        )
        self._constant: float | None = None

    def fit(self, X: np.ndarray, feasible: np.ndarray) -> "FeasibilityModel":
        X = np.asarray(X, dtype=float)
        labels = np.asarray(feasible, dtype=int)
        if labels.size == 0:
            raise DesignSpaceError("feasibility model needs at least one observation")
        if np.unique(labels).size < 2:
            # All observations agree; the classifier cannot be trained, so
            # predict that constant probability everywhere.
            self._constant = float(labels[0])
            return self
        self._constant = None
        self._forest.fit(X, labels)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self._constant is not None:
            return np.full(X.shape[0], self._constant)
        proba = self._forest.predict_proba(X)
        positive = list(self._forest.classes_).index(1)
        return proba[:, positive]
