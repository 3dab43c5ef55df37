"""The per-node-argsort CART that ``repro.ml.tree`` replaced: the test oracle.

This is the tree module as it stood before the presorted split engine,
kept verbatim below the docstring.  Every node argsorts every candidate
feature again and walks the split positions in a Python loop, accepting
a gain only if it beats the best so far by more than ``1e-12``.
``test_tree_oracle.py`` requires the engine's trees, leaf values and RNG
state after ``fit`` to equal this module's, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.rng import as_generator


@dataclass
class _Node:
    """A tree node; leaves carry ``value``, splits carry feature/threshold."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | None = None  # class counts (clf) or mean (reg)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class _BaseTree:
    """Shared CART machinery; subclasses define impurity and leaf values."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise TrainingError("min_samples_split >= 2 and min_samples_leaf >= 1 required")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self._rng = as_generator(seed)
        self.root: _Node | None = None
        self.n_features_: int = 0

    # Subclass hooks -----------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    # Construction -------------------------------------------------------
    def _candidate_features(self) -> np.ndarray:
        d = self.n_features_
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(d)))
        else:
            k = min(int(self.max_features), d)
        return self._rng.choice(d, size=k, replace=False)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
        """Return (feature, threshold, gain); feature == -1 if no split."""
        parent = self._impurity(y)
        n = y.shape[0]
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            # Candidate thresholds at midpoints between distinct values.
            distinct = np.nonzero(np.diff(xs) > 0)[0]
            for i in distinct:
                left_n = i + 1
                right_n = n - left_n
                if left_n < self.min_samples_leaf or right_n < self.min_samples_leaf:
                    continue
                gain = parent - (
                    left_n / n * self._impurity(ys[:left_n])
                    + right_n / n * self._impurity(ys[left_n:])
                )
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_feature = int(feature)
                    best_threshold = float((xs[i] + xs[i + 1]) / 2.0)
        return best_feature, best_threshold, best_gain

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or y.shape[0] < self.min_samples_split
            or self._impurity(y) == 0.0
        ):
            return node
        feature, threshold, gain = self._best_split(X, y)
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise TrainingError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise TrainingError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise TrainingError("cannot fit a tree on an empty dataset")
        self.n_features_ = X.shape[1]
        self._prepare_targets(y)
        self.root = self._build(X, self._encoded_targets(y), depth=0)
        return self

    def _prepare_targets(self, y: np.ndarray) -> None:
        """Subclass hook run once before building (e.g. class table)."""

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        return y

    # Inference ----------------------------------------------------------
    def _leaves(self, X: np.ndarray):
        """Yield ``(leaf, row indices)`` for every leaf ``X`` reaches.

        Batched traversal: the whole query set is partitioned down the
        tree instead of walked one sample at a time (the surrogate scores
        a 256-candidate pool per BO iteration).
        """
        if self.root is None:
            raise TrainingError("tree used before fit()")
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                yield node, idx
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a stump)."""

        def walk(node: "_Node | None") -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""

        def walk(node: "_Node | None") -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)

    @property
    def n_nodes(self) -> int:
        """Total node count."""

        def walk(node: "_Node | None") -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + walk(node.left) + walk(node.right)

        return walk(self.root)


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity CART classifier over integer labels."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def _prepare_targets(self, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.classes_)}
        return np.array([index[v] for v in y], dtype=int)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=len(self.classes_))
        return counts.astype(float)

    def _impurity(self, y: np.ndarray) -> float:
        return _gini(np.bincount(y, minlength=len(self.classes_)))

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
        """Gini split via prefix-sum class counts.

        The base implementation re-bincounts both children at every
        candidate threshold — O(n) numpy calls per position.  Here a
        one-hot cumulative sum yields every left/right class-count table
        in one vectorized pass per feature, mirroring the
        :class:`DecisionTreeRegressor` treatment.  This is the hot path
        of :class:`~repro.bayesopt.surrogate.FeasibilityModel`, which
        refits a forest of these trees on every model-guided suggest
        once feasibility labels are mixed.  Selection keeps the base
        rule: scan positions in order, accept only > 1e-12 improvements.
        """
        parent = self._impurity(y)
        n = y.shape[0]
        n_classes = len(self.classes_)
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            distinct = np.nonzero(np.diff(xs) > 0)[0]
            if distinct.size == 0:
                continue
            left_n = distinct + 1
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), ys] = 1.0
            cum = np.cumsum(onehot, axis=0)
            counts_left = cum[distinct]                      # (m, K)
            counts_right = cum[-1] - counts_left
            p_left = counts_left / left_n[:, None]
            p_right = counts_right / right_n[:, None]
            gini_left = 1.0 - np.sum(p_left * p_left, axis=1)
            gini_right = 1.0 - np.sum(p_right * p_right, axis=1)
            gains = parent - (
                left_n / n * gini_left + right_n / n * gini_right
            )
            for idx in np.nonzero(valid)[0]:
                if gains[idx] > best_gain + 1e-12:
                    best_gain = float(gains[idx])
                    best_feature = int(feature)
                    i = int(distinct[idx])
                    best_threshold = float((xs[i] + xs[i + 1]) / 2.0)
        return best_feature, best_threshold, best_gain

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities: leaf class counts, normalized."""
        X = np.asarray(X, dtype=float)
        out = np.zeros((X.shape[0], len(self.classes_)))
        for leaf, idx in self._leaves(X):
            out[idx] = leaf.value / leaf.value.sum()
        return out

    def predict(self, X) -> np.ndarray:
        """Most probable class label for every row of ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """Variance-reduction CART regressor."""

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([float(np.mean(y))])

    def _impurity(self, y: np.ndarray) -> float:
        # Single-pass variance (sum-of-squares form, clipped at 0): the
        # same quantity np.var computes, minus the per-call overhead —
        # this runs at every node of every surrogate tree.
        n = y.shape[0]
        if n == 0:
            return 0.0
        s = float(y.sum())
        q = float(y @ y)
        return max(q / n - (s / n) ** 2, 0.0)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
        """Variance-reduction split via prefix sums.

        Scoring every candidate threshold with ``np.var`` is O(n) numpy
        calls per position; this override computes all left/right SSEs in
        one vectorized pass per feature (O(n log n) total), which is the
        hot path of the random-forest BO surrogate — every ``suggest``
        refits a forest of these trees.  Selection keeps the base rule:
        scan positions in order, accepting only > 1e-12 improvements.
        """
        parent = self._impurity(y)
        n = y.shape[0]
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            distinct = np.nonzero(np.diff(xs) > 0)[0]
            if distinct.size == 0:
                continue
            left_n = distinct + 1
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
            if not valid.any():
                continue
            cum_s = np.cumsum(ys)
            cum_q = np.cumsum(ys * ys)
            s_left = cum_s[distinct]
            q_left = cum_q[distinct]
            s_right = cum_s[-1] - s_left
            q_right = cum_q[-1] - q_left
            var_left = np.maximum(q_left / left_n - (s_left / left_n) ** 2, 0.0)
            var_right = np.maximum(q_right / right_n - (s_right / right_n) ** 2, 0.0)
            gains = parent - (left_n * var_left + right_n * var_right) / n
            for idx in np.nonzero(valid)[0]:
                if gains[idx] > best_gain + 1e-12:
                    best_gain = float(gains[idx])
                    best_feature = int(feature)
                    i = int(distinct[idx])
                    best_threshold = float((xs[i] + xs[i + 1]) / 2.0)
        return best_feature, best_threshold, best_gain

    def predict(self, X) -> np.ndarray:
        """Leaf-mean regression value for every row of ``X``."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for leaf, idx in self._leaves(X):
            out[idx] = leaf.value[0]
        return out
