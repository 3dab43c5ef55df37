"""The split engine must match the oracle's base scan exactly.

``cart_oracle._BaseTree._best_split`` is the O(n^2) scan that re-scores
both children at every split position; the engine's vectorised gains
and tie rule must pick the same splits.
"""

import numpy as np
import pytest

import cart_oracle
from repro.ml.tree import DecisionTreeClassifier


def reference_split(X, y, **params):
    """The oracle's base-class scan on the root of a classifier fit."""
    clf = cart_oracle.DecisionTreeClassifier(**params)
    clf.n_features_ = X.shape[1]
    clf._prepare_targets(y)
    feature, threshold, _ = cart_oracle._BaseTree._best_split(clf, X, clf._encoded_targets(y))
    return feature, threshold


def engine_split(X, y, **params):
    """The engine's root split of a depth-1 classifier fit."""
    root = DecisionTreeClassifier(max_depth=1, **params).fit(X, y).root
    return (-1, 0.0) if root.is_leaf else (root.feature, root.threshold)


class TestVectorizedClassifierSplit:
    @pytest.mark.parametrize("trial", range(12))
    def test_identical_to_base_scan(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(20, 300))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X = np.round(X, 1)  # force duplicate feature values (ties)
        y = rng.integers(0, k, size=n)
        params = dict(min_samples_leaf=int(rng.integers(1, 4)), seed=1)
        assert engine_split(X, y, **params) == reference_split(X, y, **params)

    def test_constant_feature_no_split(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5)
        assert reference_split(X, y, seed=0) == (-1, 0.0)
        assert engine_split(X, y, seed=0) == (-1, 0.0)

    def test_trained_trees_agree_end_to_end(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)

        fast = DecisionTreeClassifier(max_depth=5, seed=3).fit(X, y)

        slow = cart_oracle.DecisionTreeClassifier(max_depth=5, seed=3)
        slow._best_split = lambda a, b: cart_oracle._BaseTree._best_split(slow, a, b)
        slow.fit(X, y)

        grid = rng.normal(size=(500, 5))
        assert np.array_equal(fast.predict(grid), slow.predict(grid))
        assert fast.n_nodes == slow.n_nodes
        assert fast.depth == slow.depth


def reference_proba(clf, X):
    """Walk each row to its leaf and normalise that leaf's class counts."""
    out = np.zeros((X.shape[0], len(clf.classes_)))
    for i, x in enumerate(X):
        node = clf.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out[i] = node.value / node.value.sum()
    return out


class TestBatchedPredictProba:
    @pytest.mark.parametrize("trial", range(8))
    def test_identical_to_per_row_walk(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(30, 200))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, int(rng.integers(2, 5)), size=n)
        clf = DecisionTreeClassifier(max_depth=int(rng.integers(1, 7)), seed=trial)
        clf.fit(X, y)
        query = np.vstack([rng.normal(size=(int(rng.integers(1, 50)), d)), X[:3]])
        query[0, 0] = np.nan  # NaN fails every <= test: goes right
        got = clf.predict_proba(query)
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_proba(clf, query))
        assert clf.predict_proba(query[:0]).shape == (0, len(clf.classes_))
