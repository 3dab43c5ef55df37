"""Tests for surrogates, feasibility model, and acquisition functions."""

import numpy as np
import pytest

from repro.bayesopt.acquisition import (
    constrained_expected_improvement,
    expected_improvement,
    probability_of_feasibility,
)
from repro.bayesopt.surrogate import (
    FeasibilityModel,
    RandomForestSurrogate,
)
from repro.errors import DesignSpaceError


def _toy_regression(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, (n, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    return X, y


class TestRandomForestSurrogate:
    def test_fit_predict_shapes(self):
        X, y = _toy_regression()
        surrogate = RandomForestSurrogate(seed=0).fit(X, y)
        mean, std = surrogate.predict(X[:10])
        assert mean.shape == (10,) and std.shape == (10,)

    def test_std_positive(self):
        X, y = _toy_regression()
        _, std = RandomForestSurrogate(seed=0).fit(X, y).predict(X[:5])
        assert np.all(std > 0)

    def test_interpolates_reasonably(self):
        X, y = _toy_regression(n=200)
        surrogate = RandomForestSurrogate(seed=0).fit(X, y)
        mean, _ = surrogate.predict(X)
        assert np.corrcoef(mean, y)[0, 1] > 0.9

    def test_empty_fit_raises(self):
        with pytest.raises(DesignSpaceError):
            RandomForestSurrogate().fit(np.empty((0, 2)), np.empty(0))


class TestFeasibilityModel:
    def test_learns_half_plane(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (200, 2))
        feasible = X[:, 0] > 0
        model = FeasibilityModel(seed=0).fit(X, feasible)
        prob_pos = model.predict_proba(np.array([[0.8, 0.0]]))
        prob_neg = model.predict_proba(np.array([[-0.8, 0.0]]))
        assert prob_pos[0] > 0.7
        assert prob_neg[0] < 0.3

    def test_constant_labels(self):
        X = np.ones((5, 2))
        model = FeasibilityModel(seed=0).fit(X, np.ones(5, dtype=bool))
        assert np.allclose(model.predict_proba(X), 1.0)
        model = FeasibilityModel(seed=0).fit(X, np.zeros(5, dtype=bool))
        assert np.allclose(model.predict_proba(X), 0.0)

    def test_empty_raises(self):
        with pytest.raises(DesignSpaceError):
            FeasibilityModel().fit(np.empty((0, 2)), np.empty(0, dtype=bool))


class TestAcquisition:
    def test_ei_zero_when_hopeless(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-9]), best=10.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_ei_positive_when_promising(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.5]), best=0.0)
        assert ei[0] > 0.9

    def test_ei_grows_with_uncertainty(self):
        low = expected_improvement(np.array([0.0]), np.array([0.1]), best=0.5)
        high = expected_improvement(np.array([0.0]), np.array([2.0]), best=0.5)
        assert high[0] > low[0]

    def test_ei_degenerate_std_uses_plain_improvement(self):
        ei = expected_improvement(np.array([2.0]), np.array([0.0]), best=1.0)
        assert ei[0] == pytest.approx(1.0)

    def test_pof_clamped(self):
        out = probability_of_feasibility(np.array([-0.5, 0.5, 1.5]), floor=0.1)
        assert np.array_equal(out, [0.1, 0.5, 1.0])

    def test_constrained_ei_without_incumbent_is_pof(self):
        pof = np.array([0.2, 0.9])
        scores = constrained_expected_improvement(
            np.zeros(2), np.ones(2), best_feasible=None, pof=pof
        )
        assert np.array_equal(scores, np.clip(pof, 0.01, 1.0))

    def test_constrained_ei_scales_by_pof(self):
        mean = np.array([1.0, 1.0])
        std = np.array([0.5, 0.5])
        scores = constrained_expected_improvement(
            mean, std, best_feasible=0.0, pof=np.array([1.0, 0.5])
        )
        assert scores[0] == pytest.approx(2 * scores[1], rel=1e-6)
