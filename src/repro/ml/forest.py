"""Random forests by bagging the CART trees.

The regressor doubles as the Bayesian-optimization surrogate (the paper
runs HyperMapper with a random-forest model, §5), so it exposes
``predict_with_std`` — the across-tree spread that Expected Improvement
uses as its uncertainty estimate.

A fit draws every tree's bootstrap sample from that tree's own RNG, then
hands all the samples to the tree class's batched fit
(:meth:`~repro.ml.tree._BaseTree._fit_many`), which grows the trees
together, one batch of nodes per pass.  A tree class without a batched
fit gets ``fit`` once per tree; the forest is the same either way.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.rng import as_generator, spawn


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = "sqrt",
        bootstrap: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_estimators < 1:
            raise TrainingError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self._rng = as_generator(seed)
        self.trees: list = []

    #: The CART tree class the forest bags.
    _tree_class: type

    def _make_tree(self, rng: np.random.Generator):
        return self._tree_class(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=rng,
        )

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise TrainingError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise TrainingError("cannot fit a forest on an empty dataset")
        rngs = spawn(self._rng, self.n_estimators)
        self.trees = [self._make_tree(rng) for rng in rngs]
        n = X.shape[0]
        samples = np.stack([rng.integers(0, n, size=n) for rng in rngs]) if self.bootstrap else None
        fit_many = getattr(self._tree_class, "_fit_many", None)
        if fit_many is not None:
            fit_many(self.trees, X, y, samples)
        else:  # a tree class without the batched fit grows one tree at a time
            for t, tree in enumerate(self.trees):
                rows = slice(None) if samples is None else samples[t]
                tree.fit(X[rows], y[rows])
        return self


class RandomForestClassifier(_BaseForest):
    """Majority-vote ensemble of Gini CART trees, grown together."""

    _tree_class = DecisionTreeClassifier

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def fit(self, X, y):
        """Fit the ensemble on bootstrap resamples of ``(X, y)``.

        The forest-level class table is recorded first so trees whose
        bootstrap missed a class still vote in a common column order.
        """
        self.classes_ = np.unique(np.asarray(y))
        return super().fit(X, y)

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities averaged over every tree's vote."""
        if not self.trees:
            raise TrainingError("forest used before fit()")
        X = np.asarray(X, dtype=float)
        total = np.zeros((X.shape[0], len(self.classes_)))
        index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.trees:
            proba = tree.predict_proba(X)
            # Trees bootstrapped on a subset may have seen fewer classes.
            for j, cls in enumerate(tree.classes_):
                total[:, index[cls]] += proba[:, j]
        return total / len(self.trees)

    def predict(self, X) -> np.ndarray:
        """Majority-vote class label for every row of ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]


class RandomForestRegressor(_BaseForest):
    """Mean-aggregated ensemble of variance-reduction CART trees, grown together."""

    _tree_class = DecisionTreeRegressor

    def _all_predictions(self, X) -> np.ndarray:
        if not self.trees:
            raise TrainingError("forest used before fit()")
        X = np.asarray(X, dtype=float)
        return np.stack([tree.predict(X) for tree in self.trees])

    def predict(self, X) -> np.ndarray:
        """Across-tree mean prediction for every row of ``X``."""
        return self._all_predictions(X).mean(axis=0)

    def predict_with_std(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree standard deviation per sample.

        The std is the epistemic-uncertainty proxy consumed by Expected
        Improvement in :mod:`repro.bayesopt.acquisition`.
        """
        preds = self._all_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0)
