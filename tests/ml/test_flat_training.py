"""Training through one flat parameter vector matches the per-key oracle.

``optimizer_oracle`` is the optimizer and training step the flat vector
replaced: one ``update`` per weight and bias array per mini-batch, with
fresh temporaries.  Elementwise IEEE arithmetic does not depend on where
an element lives, so the flat path must reproduce the oracle's weights,
loss curves and predictions byte for byte, across repeated ``fit`` calls,
a ``set_weights`` in between, and an optimizer instance shared by both
fits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optimizer_oracle
from repro.errors import TrainingError
from repro.ml import optimizers
from repro.ml.bnn import BinarizedNetwork
from repro.ml.network import NeuralNetwork

OPTIMIZERS = ("adam", "momentum", "sgd")


def make_optimizer(name, learning_rate, module):
    """A fresh ``name`` optimizer from ``module`` (the library or the oracle)."""
    if name == "adam":
        return module.Adam(learning_rate)
    return module.SGD(learning_rate, momentum=0.9 if name == "momentum" else 0.0)


@st.composite
def problems(draw):
    """A dataset whose row count is often not a multiple of the batch size."""
    batch_size = draw(st.integers(1, 16))
    n = batch_size * draw(st.integers(1, 4)) + draw(st.integers(0, batch_size - 1))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 2.0, (n, d))
    return X, rng, batch_size


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes())


def assert_same_network(got, want, X):
    for (gw, gb), (ww, wb) in zip(got.get_weights(), want.get_weights()):
        assert same_bytes(gw, ww) and same_bytes(gb, wb)
    assert same_bytes(got.history.loss, want.history.loss)
    assert same_bytes(got.history.val_loss, want.history.val_loss)
    assert same_bytes(got.predict_proba(X), want.predict_proba(X))
    assert same_bytes(got.predict(X), want.predict(X))
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


@given(
    problem=problems(),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    dropout=st.sampled_from([0.0, 0.3]),
    n_classes=st.integers(1, 4),
    optimizer=st.sampled_from(OPTIMIZERS),
    learning_rate=st.sampled_from([0.001, 0.01, 0.1]),
    epochs=st.integers(1, 3),
    validate=st.booleans(),
    shared=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
@example(problem=(np.arange(21.0).reshape(7, 3), np.random.default_rng(0), 4),
         hidden=[5, 3], dropout=0.3, n_classes=3, optimizer="adam",
         learning_rate=0.01, epochs=2, validate=True, shared=True, seed=0)
def test_network_matches_oracle(problem, hidden, dropout, n_classes, optimizer,
                                learning_rate, epochs, validate, shared, seed):
    X, rng, batch_size = problem
    n, d = X.shape
    labels = rng.integers(0, max(n_classes, 2), n)
    if n_classes == 1:
        y, head = labels, "sigmoid"
    else:
        y, head = np.eye(n_classes)[labels % n_classes], "softmax"
    out = 1 if n_classes == 1 else n_classes
    dims = [d, *hidden, out]
    got = NeuralNetwork(dims, output_activation=head, dropout=dropout, seed=seed)
    want = NeuralNetwork(dims, output_activation=head, dropout=dropout, seed=seed)
    fit_kw = dict(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate,
                  validation_data=(X[::2], y[::2]) if validate else None,
                  patience=1 if validate else None)
    got_opt = make_optimizer(optimizer, learning_rate, optimizers) if shared else optimizer
    want_opt = make_optimizer(optimizer, learning_rate, optimizer_oracle) if shared else optimizer

    def fit_both():
        got.fit(X, y, optimizer=got_opt, **fit_kw)
        optimizer_oracle.fit_network(want, X, y, optimizer=want_opt, **fit_kw)
        assert_same_network(got, want, X)

    fit_both()
    fit_both()
    weights = [(w[::-1] * 0.5, b + 0.25) for w, b in want.get_weights()]
    got.set_weights(weights)
    want.set_weights(weights)
    fit_both()


@given(
    problem=problems(),
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
    n_classes=st.integers(1, 4),
    optimizer=st.sampled_from(OPTIMIZERS),
    learning_rate=st.sampled_from([0.001, 0.01, 0.1]),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_binarized_matches_oracle(problem, hidden, n_classes, optimizer,
                                  learning_rate, epochs, seed):
    X, rng, batch_size = problem
    labels = rng.integers(0, max(n_classes, 2), X.shape[0])
    y = labels if n_classes == 1 else np.eye(n_classes)[labels % n_classes]
    dims = [X.shape[1], *hidden, n_classes]
    got = BinarizedNetwork(dims, seed=seed)
    want = BinarizedNetwork(dims, seed=seed)
    fit_kw = dict(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate,
                  optimizer=optimizer)
    for round_ in range(2):
        if round_:
            # Rebind one layer's weights between fits, as a loader would.
            latent = np.clip(want.layers[0].latent_weights[::-1] * 3.0, -1.0, 1.0)
            got.layers[0].latent_weights = latent.copy()
            want.layers[0].latent_weights = latent.copy()
        got_losses = got.fit(X, y, **fit_kw)
        want_losses = optimizer_oracle.fit_binarized(want, X, y, **fit_kw)
        assert same_bytes(got_losses, want_losses)
        for g, w in zip(got.layers, want.layers):
            assert same_bytes(g.latent_weights, w.latent_weights)
            assert same_bytes(g.bias, w.bias)
        assert same_bytes(got.forward(X), want.forward(X))
        assert same_bytes(got.predict(X), want.predict(X))


@pytest.mark.parametrize(
    "optimizer", [optimizers.Adam(0.01), optimizers.SGD(0.01, momentum=0.9)])
def test_optimizer_reused_on_another_network_names_key_and_shapes(optimizer):
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = (X[:, 0] > 0).astype(int)
    NeuralNetwork([3, 4, 1], seed=0).fit(X, y, epochs=1, optimizer=optimizer)
    with pytest.raises(TrainingError, match=r"'params'.*\(21,\).*\(26,\)"):
        NeuralNetwork([3, 5, 1], seed=0).fit(X, y, epochs=1, optimizer=optimizer)


def test_plain_sgd_carries_no_state_between_shapes():
    opt = optimizers.SGD(0.5)
    first, second = np.ones(2), np.ones(3)
    opt.update("p", first, np.ones(2))
    opt.update("p", second, np.ones(3))
    assert first.tolist() == [0.5, 0.5] and second.tolist() == [0.5, 0.5, 0.5]


def test_fit_leaves_weights_as_views_of_one_vector():
    X = np.random.default_rng(1).normal(size=(10, 2))
    net = NeuralNetwork([2, 3, 1], seed=0)
    net.fit(X, X[:, 0] > 0, epochs=1)
    bases = {id(array.base) for layer in net.dense_layers
             for array in (layer.weights, layer.bias)}
    assert len(bases) == 1
