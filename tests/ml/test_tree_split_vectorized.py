"""The vectorized classifier split must match the base scan exactly."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier, _BaseTree


def reference_split(clf, X, y):
    """The base-class O(n^2) scan, bound to a classifier instance."""
    return _BaseTree._best_split(clf, X, y)


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
        clf = DecisionTreeClassifier(
            max_depth=6,
            min_samples_leaf=int(rng.integers(1, 4)),
            seed=1,
        )
        clf.n_features_ = d
        clf._prepare_targets(y)
        encoded = clf._encoded_targets(y)
        assert clf._best_split(X, encoded) == reference_split(clf, X, encoded)

    def test_constant_feature_no_split(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5)
        clf = DecisionTreeClassifier(seed=0)
        clf.n_features_ = 1
        clf._prepare_targets(y)
        feature, _, gain = clf._best_split(X, clf._encoded_targets(y))
        assert feature == -1
        assert gain == 0.0

    def test_trained_trees_agree_end_to_end(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)

        fast = DecisionTreeClassifier(max_depth=5, seed=3).fit(X, y)

        slow = DecisionTreeClassifier(max_depth=5, seed=3)
        slow._best_split = lambda a, b: _BaseTree._best_split(slow, a, b)
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
