"""Tests for activations, losses, and their gradients (numeric checks)."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.activations import (
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)
from repro.ml.losses import (
    BinaryCrossEntropy,
    CategoricalCrossEntropy,
    Hinge,
    MeanSquaredError,
    get_loss,
)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_backward_from_output(self):
        act = ReLU()
        out = act.forward(np.array([-1.0, 3.0]))
        assert np.array_equal(act.backward(out), [0.0, 1.0])

    def test_sigmoid_range_and_midpoint(self):
        act = Sigmoid()
        out = act.forward(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))  # clipped, no overflow warnings
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[1] == pytest.approx(0.5)

    def test_sigmoid_derivative_matches_numeric(self):
        act = Sigmoid()
        x = np.array([0.3, -1.2, 2.0])
        eps = 1e-6
        numeric = (act.forward(x + eps) - act.forward(x - eps)) / (2 * eps)
        analytic = act.backward(act.forward(x))
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_tanh_derivative_matches_numeric(self):
        act = Tanh()
        x = np.array([0.5, -0.7])
        eps = 1e-6
        numeric = (act.forward(x + eps) - act.forward(x - eps)) / (2 * eps)
        assert np.allclose(act.backward(act.forward(x)), numeric, atol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        act = Softmax()
        assert np.allclose(act.forward(x), act.forward(x + 100.0))

    def test_registry_lookup(self):
        assert isinstance(get_activation("relu"), ReLU)
        assert isinstance(get_activation("softmax"), Softmax)

    def test_unknown_name_raises(self):
        with pytest.raises(TrainingError):
            get_activation("swish")

    def test_instance_passthrough(self):
        act = Tanh()
        assert get_activation(act) is act


class TestLosses:
    def test_mse_value(self):
        loss = MeanSquaredError()
        assert loss.value(np.array([[1.0]]), np.array([[3.0]])) == pytest.approx(4.0)

    def test_mse_gradient_matches_numeric(self):
        loss = MeanSquaredError()
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.7, 0.4]])
        eps = 1e-6
        grad = loss.gradient(y, p)
        for i in range(2):
            dp = p.copy()
            dp[0, i] += eps
            dm = p.copy()
            dm[0, i] -= eps
            numeric = (loss.value(y, dp) - loss.value(y, dm)) / (2 * eps)
            assert grad[0, i] == pytest.approx(numeric, abs=1e-5)

    def test_bce_perfect_prediction_near_zero(self):
        loss = BinaryCrossEntropy()
        assert loss.value(np.array([[1.0]]), np.array([[0.999999]])) < 1e-4

    def test_bce_penalizes_confident_mistake(self):
        loss = BinaryCrossEntropy()
        bad = loss.value(np.array([[1.0]]), np.array([[0.01]]))
        mild = loss.value(np.array([[1.0]]), np.array([[0.4]]))
        assert bad > mild

    def test_cce_value_known(self):
        loss = CategoricalCrossEntropy()
        y = np.array([[0.0, 1.0, 0.0]])
        p = np.array([[0.1, 0.8, 0.1]])
        assert loss.value(y, p) == pytest.approx(-np.log(0.8))

    def test_cce_fused_gradient(self):
        loss = CategoricalCrossEntropy()
        y = np.array([[0.0, 1.0]])
        p = np.array([[0.3, 0.7]])
        assert np.allclose(loss.gradient(y, p), (p - y) / 1)

    def test_hinge_zero_beyond_margin(self):
        loss = Hinge()
        assert loss.value(np.array([1.0]), np.array([2.0])) == 0.0

    def test_hinge_linear_inside_margin(self):
        loss = Hinge()
        assert loss.value(np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)

    def test_registry(self):
        assert isinstance(get_loss("mse"), MeanSquaredError)
        with pytest.raises(TrainingError):
            get_loss("focal")
