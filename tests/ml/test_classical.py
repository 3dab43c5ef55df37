"""Tests for SVM, KMeans, decision trees, and random forests."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.kmeans import KMeans
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class TestLinearSVM:
    def test_learns_blobs(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        svm = LinearSVM(seed=0).fit(Xtr, ytr)
        assert float(np.mean(svm.predict(Xte) == yte)) > 0.95

    def test_decision_function_sign_matches_predict(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        svm = LinearSVM(seed=0).fit(Xtr, ytr)
        scores = svm.decision_function(Xte)
        preds = svm.predict(Xte)
        assert np.array_equal(preds == 1, scores >= 0)

    def test_multiclass_one_vs_rest(self):
        # Simplex-corner blobs: every class is linearly separable from the
        # union of the others (a line of blobs would not be, under OvR).
        rng = np.random.default_rng(0)
        centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
        X = np.vstack([rng.normal(c, 0.6, (50, 3)) for c in centers])
        y = np.repeat(np.arange(3), 50)
        svm = LinearSVM(seed=0).fit(X, y)
        assert svm.coef_.shape == (3, 3)
        assert float(np.mean(svm.predict(X) == y)) > 0.95

    def test_preserves_label_values(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.5, (30, 2)), rng.normal(5, 0.5, (30, 2))])
        y = np.array([7] * 30 + [9] * 30)
        svm = LinearSVM(seed=0).fit(X, y)
        assert set(np.unique(svm.predict(X))) <= {7, 9}

    def test_single_class_raises(self):
        with pytest.raises(TrainingError):
            LinearSVM().fit(np.ones((10, 2)), np.zeros(10))

    def test_unfit_predict_raises(self):
        with pytest.raises(TrainingError):
            LinearSVM().predict(np.ones((2, 2)))

    def test_bad_c_raises(self):
        with pytest.raises(TrainingError):
            LinearSVM(C=0.0)

    def test_n_params(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        svm = LinearSVM(seed=0).fit(Xtr, ytr)
        assert svm.n_params == 7 + 1


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
        X = np.vstack([rng.normal(c, 0.5, (50, 2)) for c in centers])
        km = KMeans(n_clusters=3, seed=0).fit(X)
        labels = km.predict(X)
        # Each true blob should map to exactly one cluster id.
        for blob in range(3):
            blob_labels = labels[blob * 50 : (blob + 1) * 50]
            assert len(set(blob_labels.tolist())) == 1

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (200, 3))
        inertias = [
            KMeans(n_clusters=k, seed=0).fit(X).inertia_ for k in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(inertias, inertias[1:]))

    def test_predict_matches_nearest_centroid(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (50, 2))
        km = KMeans(n_clusters=3, seed=0).fit(X)
        labels = km.predict(X)
        dists = ((X[:, None, :] - km.cluster_centers_[None]) ** 2).sum(-1)
        assert np.array_equal(labels, dists.argmin(axis=1))

    def test_too_few_samples_raises(self):
        with pytest.raises(TrainingError):
            KMeans(n_clusters=10).fit(np.ones((3, 2)))

    def test_unfit_predict_raises(self):
        with pytest.raises(TrainingError):
            KMeans().predict(np.ones((2, 2)))


class TestDecisionTree:
    def test_fits_axis_aligned_boundary(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 0, 1, 1, 1])
        tree = DecisionTreeClassifier(max_depth=2, seed=0).fit(X, y)
        assert np.array_equal(tree.predict(X), y)
        assert tree.depth == 1

    def test_max_depth_respected(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(Xtr, ytr)
        assert tree.depth <= 3

    def test_predict_proba_rows_sum_to_one(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(Xtr, ytr)
        proba = tree.predict_proba(Xte)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (60, 2))
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=8, min_samples_leaf=10, seed=0)
        tree.fit(X, y)

        def check(node, X_count):
            return True  # structural check below via leaves

        # All leaves should have been formed with >= 10 training samples:
        # verify indirectly — counts stored at leaves sum to >= 10.
        def walk(node):
            if node.is_leaf:
                assert node.value.sum() >= 10
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    def test_regressor_fits_step(self):
        X = np.linspace(0, 10, 50).reshape(-1, 1)
        y = (X.ravel() > 5).astype(float) * 3.0
        reg = DecisionTreeRegressor(max_depth=2, seed=0).fit(X, y)
        pred = reg.predict(X)
        assert np.allclose(pred, y, atol=0.2)

    def test_label_values_preserved(self):
        X = np.array([[0.0], [10.0]] * 10)
        y = np.array([5, 9] * 10)
        tree = DecisionTreeClassifier(max_depth=2, seed=0).fit(X, y)
        assert set(np.unique(tree.predict(X))) == {5, 9}

    def test_node_counts_consistent(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(Xtr, ytr)
        assert tree.n_nodes == 2 * tree.n_leaves - 1  # binary tree identity

    def test_empty_raises(self):
        with pytest.raises(TrainingError):
            DecisionTreeClassifier().fit(np.empty((0, 2)), np.empty(0))


class TestRandomForest:
    def test_classifier_beats_coin_flip(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(Xtr, ytr)
        assert float(np.mean(forest.predict(Xte) == yte)) > 0.9

    def test_proba_rows_sum_to_one(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(Xtr, ytr)
        assert np.allclose(forest.predict_proba(Xte).sum(axis=1), 1.0)

    def test_regressor_mean_and_std(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, (200, 1))
        y = X.ravel() ** 2
        forest = RandomForestRegressor(n_estimators=15, seed=0).fit(X, y)
        mean, std = forest.predict_with_std(np.array([[0.0], [1.5]]))
        assert mean.shape == (2,) and std.shape == (2,)
        assert np.all(std >= 0)
        assert mean[1] > mean[0]  # rough shape of x^2

    def test_deterministic_under_seed(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        a = RandomForestRegressor(n_estimators=5, seed=7).fit(Xtr, ytr.astype(float))
        b = RandomForestRegressor(n_estimators=5, seed=7).fit(Xtr, ytr.astype(float))
        assert np.allclose(a.predict(Xte), b.predict(Xte))

    def test_unfit_raises(self):
        with pytest.raises(TrainingError):
            RandomForestRegressor().predict(np.ones((2, 2)))

    def test_bad_estimator_count_raises(self):
        with pytest.raises(TrainingError):
            RandomForestClassifier(n_estimators=0)
