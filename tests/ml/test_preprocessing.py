"""Tests for the standard scaler and the one-hot encoder."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.ml.preprocessing import OneHotEncoder, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, (500, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_not_divided_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(DatasetError):
            StandardScaler().transform(np.ones((3, 2)))

    def test_feature_count_mismatch_raises(self):
        scaler = StandardScaler().fit(np.ones((5, 3)))
        with pytest.raises(DatasetError):
            scaler.transform(np.ones((5, 4)))

    def test_empty_fit_raises(self):
        with pytest.raises(DatasetError):
            StandardScaler().fit(np.empty((0, 3)))

    def test_1d_input_promoted(self):
        Z = StandardScaler().fit_transform(np.arange(10.0))
        assert Z.shape == (10, 1)


class TestOneHotEncoder:
    def test_shape_and_rows_sum_to_one(self):
        y = np.array([0, 2, 1, 2])
        onehot = OneHotEncoder().fit_transform(y)
        assert onehot.shape == (4, 3)
        assert np.allclose(onehot.sum(axis=1), 1.0)

    def test_explicit_n_classes(self):
        onehot = OneHotEncoder(n_classes=5).fit_transform(np.array([0, 1]))
        assert onehot.shape == (2, 5)

    def test_out_of_range_raises(self):
        enc = OneHotEncoder(n_classes=2).fit(np.array([0, 1]))
        with pytest.raises(DatasetError):
            enc.transform(np.array([2]))

    def test_bad_n_classes_raises(self):
        with pytest.raises(DatasetError):
            OneHotEncoder(n_classes=0)
