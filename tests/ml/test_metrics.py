"""Tests for classification/clustering metrics."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    homogeneity_completeness_v,
    precision_score,
    recall_score,
    v_measure_score,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert accuracy_score([1, 0], [1, 1]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(DatasetError):
            accuracy_score([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(DatasetError):
            accuracy_score([1], [1, 0])


class TestPrecisionRecallF1:
    def test_known_values(self):
        y_true = [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0]
        # tp=2, fp=1, fn=1
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        assert precision_score([1, 0], [0, 0]) == 0.0
        assert f1_score([1, 0], [0, 0]) == 0.0

    def test_no_positive_truth(self):
        assert recall_score([0, 0], [1, 0]) == 0.0

    def test_f1_is_harmonic_mean(self):
        y_true = [1, 1, 0, 0, 1, 0, 1, 1]
        y_pred = [1, 0, 0, 1, 1, 0, 0, 1]
        p = precision_score(y_true, y_pred)
        r = recall_score(y_true, y_pred)
        assert f1_score(y_true, y_pred) == pytest.approx(2 * p * r / (p + r))

    def test_macro_averages_per_class(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [0, 0, 1, 1, 2, 2]
        assert f1_score(y_true, y_pred, average="macro") == 1.0

    def test_macro_with_errors(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 1]
        per_class_0 = f1_score(y_true, y_pred, positive=0)
        per_class_1 = f1_score(y_true, y_pred, positive=1)
        macro = f1_score(y_true, y_pred, average="macro")
        assert macro == pytest.approx((per_class_0 + per_class_1) / 2)

    def test_unknown_average_raises(self):
        with pytest.raises(DatasetError):
            f1_score([1], [1], average="weighted")


class TestVMeasure:
    def test_perfect_clustering(self):
        assert v_measure_score([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_cluster_is_zero(self):
        # One cluster: completeness 1, homogeneity 0 -> V = 0.
        assert v_measure_score([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_each_point_own_cluster(self):
        # Fully homogeneous but incomplete.
        h, c, v = homogeneity_completeness_v([0, 0, 1, 1], [0, 1, 2, 3])
        assert h == pytest.approx(1.0)
        assert c < 1.0
        assert 0.0 < v < 1.0

    def test_v_is_harmonic_mean(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [0, 0, 1, 2, 2, 2]
        h, c, v = homogeneity_completeness_v(y_true, y_pred)
        assert v == pytest.approx(2 * h * c / (h + c))

    def test_permutation_invariant(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [1, 1, 2, 2, 0, 0]
        assert v_measure_score(y_true, y_pred) == pytest.approx(1.0)

    def test_symmetric_range(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, 60)
        y_pred = rng.integers(0, 4, 60)
        v = v_measure_score(y_true, y_pred)
        assert 0.0 <= v <= 1.0
