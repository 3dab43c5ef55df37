"""Tests for binarized neural networks and their Taurus lowering."""

import numpy as np
import pytest

from repro.backends.taurus import TaurusBackend
from repro.backends.taurus.ir import lower_binarized_network
from repro.backends.taurus.resources import dense_layer_cost
from repro.backends.taurus.simulator import TaurusSimulator
from repro.errors import TrainingError
from repro.ml.bnn import BinarizedNetwork, BinaryDense, binarize
from repro.ml.network import NeuralNetwork
from repro.ml.preprocessing import StandardScaler


class TestBinarize:
    def test_signs(self):
        out = binarize(np.array([-0.3, 0.0, 2.0]))
        assert np.array_equal(out, [-1.0, 1.0, 1.0])


class TestBinaryDense:
    def test_forward_uses_sign_weights(self):
        layer = BinaryDense(2, 1, binarize_output=False, rng=np.random.default_rng(0))
        layer.latent_weights = np.array([[0.9], [-0.1]])
        layer.bias = np.zeros(1)
        out = layer.forward(np.array([[2.0, 3.0]]))
        assert out[0, 0] == pytest.approx(2.0 - 3.0)

    def test_hidden_outputs_are_pm_one(self):
        layer = BinaryDense(3, 4, rng=np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).normal(size=(10, 3)))
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_latent_weights_clipped(self):
        # Steps of lr 10 throw the latent weights far past ±1; fit clamps
        # them back after every step, so some sit exactly on the bound.
        X = np.random.default_rng(0).normal(size=(16, 2))
        bnn = BinarizedNetwork([2, 2, 1], seed=0)
        bnn.fit(X, X[:, 0] > 0, epochs=2, batch_size=4, learning_rate=10.0,
                optimizer="sgd")
        latent = np.concatenate([layer.latent_weights.ravel() for layer in bnn.layers])
        assert np.abs(latent).max() == 1.0

    def test_backward_requires_training_forward(self):
        layer = BinaryDense(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            layer.backward(np.ones((1, 2)))

    def test_bad_dims_raise(self):
        with pytest.raises(TrainingError):
            BinaryDense(0, 2)


class TestBinarizedNetwork:
    def test_learns_blobs(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        scaler = StandardScaler().fit(Xtr)
        bnn = BinarizedNetwork([7, 24, 1], seed=0)
        bnn.fit(scaler.transform(Xtr), ytr, epochs=25, learning_rate=0.01)
        acc = float(np.mean(bnn.predict(scaler.transform(Xte)) == yte))
        assert acc > 0.85

    def test_loss_decreases(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        bnn = BinarizedNetwork([7, 16, 1], seed=0)
        losses = bnn.fit(Xtr, ytr, epochs=15, learning_rate=0.01)
        assert losses[-1] < losses[0]

    def test_deterministic(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        preds = []
        for _ in range(2):
            bnn = BinarizedNetwork([7, 8, 1], seed=5)
            bnn.fit(Xtr, ytr, epochs=5)
            preds.append(bnn.predict(Xte))
        assert np.array_equal(preds[0], preds[1])

    def test_target_dim_checked(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        bnn = BinarizedNetwork([7, 4, 2], seed=0)
        with pytest.raises(TrainingError):
            bnn.fit(Xtr, ytr, epochs=1)


class TestBnnLowering:
    @pytest.fixture(scope="class")
    def trained(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        scaler = StandardScaler().fit(Xtr)
        bnn = BinarizedNetwork([7, 24, 1], seed=0)
        bnn.fit(scaler.transform(Xtr), ytr, epochs=25, learning_rate=0.01)
        return bnn, scaler

    def test_lowered_stages_binary(self, trained):
        bnn, scaler = trained
        program = lower_binarized_network(bnn, scaler=scaler)
        dense = program.dense_stages
        assert all(stage.binary for stage in dense)
        assert dense[0].activation == "sign"
        assert dense[-1].activation == "linear"
        # ±1 weights are exact in fixed point: codes are ±2^frac.
        one = 1 << program.fmt.fraction_bits
        assert set(np.unique(dense[0].weight_codes)) <= {-one, one}

    def test_simulator_matches_float_bnn(self, trained, blobs_binary):
        _, _, Xte, _ = blobs_binary
        bnn, scaler = trained
        program = lower_binarized_network(bnn, scaler=scaler)
        hw = TaurusSimulator(program).predict(Xte)
        float_pred = bnn.predict(scaler.transform(Xte))
        assert float(np.mean(hw == float_pred)) > 0.95

    def test_binary_layer_cheaper_than_fixed_point(self):
        fixed = dense_layer_cost(30, 16, nonlinear=True, binary=False)
        binary = dense_layer_cost(30, 16, nonlinear=True, binary=True)
        assert binary.cus < fixed.cus
        assert binary.mus < fixed.mus

    def test_backend_compiles_bnn(self, trained, blobs_binary):
        _, _, Xte, _ = blobs_binary
        bnn, scaler = trained
        pipe = TaurusBackend().compile_model(bnn, scaler=scaler, name="bnn")
        assert pipe.model_kind == "bnn"
        assert "XNOR-popcount" in pipe.sources["bnn.scala"]
        assert pipe.predict(Xte).shape == (Xte.shape[0],)

    def test_bnn_uses_fewer_resources_than_same_shape_dnn(self, trained, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        bnn, scaler = trained
        dnn = NeuralNetwork([7, 24, 1], seed=0)
        dnn.fit(scaler.transform(Xtr), ytr, epochs=5, learning_rate=0.01)
        backend = TaurusBackend()
        bnn_pipe = backend.compile_model(bnn, scaler=scaler, name="b")
        dnn_pipe = backend.compile_model(dnn, scaler=scaler, name="d")
        assert bnn_pipe.resources["cus"] < dnn_pipe.resources["cus"]
        assert bnn_pipe.resources["mus"] < dnn_pipe.resources["mus"]
