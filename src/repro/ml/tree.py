"""CART decision trees (classifier and regressor).

Two consumers: (a) decision trees are one of the classical algorithms the
Tofino backend lowers onto MATs (one table per level), and (b) the
regression tree is the building block of the random forest that serves as
the Bayesian-optimization surrogate (the paper configures HyperMapper with
a random-forest model).

Both trees and both forests share one split engine:

* **Presort once per fit.** ``np.argsort(X, axis=0, kind="stable")``; a
  split hands it to the children by a stable boolean partition, so each
  keeps its rows in ``(value, row index)`` order, as a per-node stable
  argsort would.  The node's rows in original order ride along: the
  regressor's leaf mean and variance are order-sensitive sums.
* **Score every candidate feature at once**, one prefix-statistic pass
  over the ``(k, n)`` sorted targets (the ``_split_gains`` hook).
* **The tie rule.** Splits are scanned feature by feature, positions
  ascending; one replaces the best so far only if its gain is more than
  ``1e-12`` higher.  :func:`_first_to_beat` applies it without a loop.

Trees, leaf values and RNG consumption are bit-identical to the
per-node-argsort CART this engine replaced, the oracle of
``tests/ml/test_tree_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.rng import as_generator

#: A split must beat the best gain so far by more than this to replace it.
_TIE_TOLERANCE = 1e-12


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


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum ``(k, K, m)`` over classes to the floats ``np.sum`` gives a class row.

    One or two terms add to the same float in any order, so binary labels
    (the common case) take a single elementwise add.  More classes are
    summed along a class-contiguous copy, the layout of a class row.
    """
    if a.shape[1] <= 2:
        return a.sum(axis=1)
    return np.ascontiguousarray(a.transpose(0, 2, 1)).sum(axis=-1)


def _first_to_beat(gains: np.ndarray) -> int:
    """Index the sequential tie rule ends on, or -1 if nothing beats 0.

    The rule scans from ``best = 0`` and accepts a gain above ``best +
    1e-12``, so every scanned gain is at most ``best + 1e-12``.  Against
    the running maximum of earlier gains (seeded with 0), a gain above
    ``runmax + 1e-12`` is certainly accepted and one at or below
    ``runmax`` certainly rejected; only near-ties after the last certain
    acceptance need a sequential pass.
    """
    runmax = np.empty_like(gains)
    runmax[0] = 0.0
    runmax[1:] = gains[:-1]
    np.fmax.accumulate(runmax, out=runmax)
    certain = np.nonzero(gains > runmax + _TIE_TOLERANCE)[0]
    pick = int(certain[-1]) if certain.size else -1
    best = float(gains[pick]) if certain.size else 0.0
    for i in np.nonzero(gains[pick + 1:] > runmax[pick + 1:])[0] + pick + 1:
        if gains[i] > best + _TIE_TOLERANCE:
            best, pick = float(gains[i]), int(i)
    return pick


class _BaseTree:
    """The shared CART engine; subclasses define the criterion and leaves."""

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

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent: float) -> np.ndarray:
        """Gains of splitting each row of ``ys`` after sorted position ``lo <= i < hi``.

        ``ys`` is ``(k, n)``: the node's targets in each candidate
        feature's sorted order.  Returns the ``(k, hi - lo)`` gains.
        Side sizes may be float arrays: ints convert exactly, so every
        quotient and product is the one integer sizes would give.
        """
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

    def _best_split(
        self, XT: np.ndarray, y: np.ndarray, order: np.ndarray, parent: float
    ) -> tuple[int, float]:
        """Return (feature, threshold) of a node; feature == -1 if no split.

        ``XT`` is the transposed training set and ``order`` the node's
        ``(d, m)`` presorted row ids.
        """
        features = self._candidate_features()
        m = order.shape[1]
        # Positions i split after sorted row i; both sides need min_samples_leaf.
        lo, hi = self.min_samples_leaf - 1, m - self.min_samples_leaf
        if features.size == 0 or lo >= hi:
            return -1, 0.0
        rows = order[features]
        xs = XT[features[:, None], rows]
        gains = self._split_gains(y[rows], lo, hi, parent)
        # ``b > a`` is ``b - a > 0`` for every IEEE pair, inf and nan included.
        distinct = xs[:, lo + 1:hi + 1] > xs[:, lo:hi]
        pick = _first_to_beat(np.where(distinct, gains, -np.inf).ravel())
        if pick < 0:
            return -1, 0.0
        f, i = divmod(pick, hi - lo)
        return int(features[f]), float((xs[f, lo + i] + xs[f, lo + i + 1]) / 2.0)

    def _grow(self, X: np.ndarray, y: np.ndarray) -> _Node:
        """Build the tree depth-first, left subtree first."""
        n, d = X.shape
        XT = np.ascontiguousarray(X.T)
        goes_left = np.empty(n, dtype=bool)
        root = _Node()
        presorted = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        stack = [(root, np.arange(n), presorted, 0)]
        while stack:
            node, rows, order, depth = stack.pop()
            ys = y[rows] if depth else y
            node.value = self._leaf_value(ys)
            if depth >= self.max_depth or rows.size < self.min_samples_split:
                continue
            parent = self._impurity(ys)
            if parent == 0.0:
                continue
            feature, threshold = self._best_split(XT, y, order, parent)
            if feature < 0:
                continue
            mask = XT[feature, rows] <= threshold
            goes_left[rows] = mask
            sorted_left = goes_left[order]
            node.feature, node.threshold = feature, threshold
            node.left, node.right = _Node(), _Node()
            stack.append((node.right, rows[~mask], order[~sorted_left].reshape(d, -1), depth + 1))
            stack.append((node.left, rows[mask], order[sorted_left].reshape(d, -1), depth + 1))
        return root

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
        self.root = self._grow(X, self._encoded_targets(y))
        return self

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        """Targets as the engine sees them; run once per fit."""
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

    def _walk(self):
        """Yield ``(node, depth)`` for every node, depth first."""
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a stump)."""
        return max((depth for _, depth in self._walk()), default=0)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(node.is_leaf for node, _ in self._walk())

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(1 for _ in self._walk())


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity CART classifier over integer labels.

    Splits come from the shared presorted engine: the first split, in
    feature then position order, whose gain beats the best so far by more
    than ``1e-12``.  Trees are bit-identical to the per-node-argsort CART.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        self.classes_ = np.unique(y)
        return np.searchsorted(self.classes_, y)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=len(self.classes_))
        return counts.astype(float)

    def _impurity(self, y: np.ndarray) -> float:
        return _gini(np.bincount(y, minlength=len(self.classes_)))

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent: float) -> np.ndarray:
        """Gini gains from prefix class counts, one cumsum for every feature.

        Counts are laid out class-major, ``(k, K, n)``, so the cumsum runs
        along contiguous memory; :func:`_class_sum` then adds each
        position's squared class shares as the per-feature CART did.
        """
        n = ys.shape[1]
        left_n = np.arange(lo + 1, hi + 1, dtype=float)
        right_n = n - left_n
        labels = np.arange(len(self.classes_))[:, None]
        cum = (ys[:, None, :] == labels).cumsum(axis=2, dtype=np.int32)  # < 2**31 rows
        counts_left = cum[:, :, lo:hi]
        counts_right = cum[:, :, -1:] - counts_left
        p_left = counts_left / left_n
        p_right = counts_right / right_n
        gini_left = 1.0 - _class_sum(p_left * p_left)
        gini_right = 1.0 - _class_sum(p_right * p_right)
        return parent - (left_n / n * gini_left + right_n / n * gini_right)

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
    """Variance-reduction CART regressor.

    Same presorted engine and tie rule as :class:`DecisionTreeClassifier`;
    trees are bit-identical to the per-node-argsort CART.
    """

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

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent: float) -> np.ndarray:
        """Variance-reduction gains from prefix sums and sums of squares."""
        n = ys.shape[1]
        left_n = np.arange(lo + 1, hi + 1, dtype=float)
        right_n = n - left_n
        cum_s = ys.cumsum(axis=1)
        cum_q = (ys * ys).cumsum(axis=1)
        s_left = cum_s[:, lo:hi]
        q_left = cum_q[:, lo:hi]
        s_right = cum_s[:, -1:] - s_left
        q_right = cum_q[:, -1:] - q_left
        var_left = np.maximum(q_left / left_n - (s_left / left_n) ** 2, 0.0)
        var_right = np.maximum(q_right / right_n - (s_right / right_n) ** 2, 0.0)
        return parent - (left_n * var_left + right_n * var_right) / n

    def predict(self, X) -> np.ndarray:
        """Leaf-mean regression value for every row of ``X``."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for leaf, idx in self._leaves(X):
            out[idx] = leaf.value[0]
        return out
