"""Feed-forward neural networks (the paper's DNN candidates).

:class:`NeuralNetwork` plays the role Keras plays in the paper: the
optimization core proposes a topology (hidden-layer sizes, learning rate,
batch size, ...), this class trains it, and the result is handed to a
backend for lowering.  The ``topology`` / ``layer_dims`` accessors are what
the resource models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.ml.layers import Dense, Dropout, Layer
from repro.ml.losses import Loss, get_loss
from repro.ml.optimizers import Optimizer, flatten, get_optimizer
from repro.rng import as_generator


@dataclass
class TrainHistory:
    """Per-epoch training telemetry."""

    loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.loss)


def check_training_data(X, y, out_dim: int, epochs: int,
                        batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float arrays with 2-D targets, or a ``TrainingError``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if X.shape[0] != y.shape[0]:
        raise TrainingError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise TrainingError("cannot train on an empty dataset")
    if epochs < 1 or batch_size < 1:
        raise TrainingError("epochs and batch_size must be >= 1")
    if y.shape[1] != out_dim:
        raise TrainingError(
            f"targets have dim {y.shape[1]} but network outputs {out_dim}"
        )
    return X, y


def train_epochs(net, weights: str, X: np.ndarray, y: np.ndarray, epochs: int,
                 batch_size: int, opt: Optimizer, loss_fn: Loss,
                 clamp: bool = False):
    """Train ``net`` by mini-batch descent; yield each epoch's mean loss.

    First copies the ``weights`` attribute and bias of every trainable
    layer of ``net`` (those with a weight gradient) into one vector
    (:func:`~repro.ml.optimizers.flatten`; the layers keep views into
    it).  Each epoch shuffles the rows with the network's own RNG; each
    batch runs a training forward pass, the loss's value and gradient,
    every layer's backward pass and one optimizer step over all weights
    and biases.  ``clamp`` keeps the
    weights in [-1, 1] after every step (a BNN's latent weights).
    """
    layers = [layer for layer in net.layers if hasattr(layer, "_grad_w")]
    params, grads = flatten(
        [(layer, attr, grad) for layer in layers
         for attr, grad in ((weights, "_grad_w"), ("bias", "_grad_b"))]
    )
    bounded = [getattr(layer, weights) for layer in layers] if clamp else []
    n = X.shape[0]
    for _ in range(epochs):
        order = net._rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            pred = net.forward(X[idx], training=True)
            value, grad = loss_fn.value_and_gradient(y[idx], pred)
            total += value
            batches += 1
            for layer in reversed(net.layers):
                grad = layer.backward(grad)
            opt.update("params", params, grads)
            for w in bounded:
                np.minimum(np.maximum(w, -1.0, out=w), 1.0, out=w)
        yield total / max(batches, 1)


class NeuralNetwork:
    """A sequential stack of :class:`~repro.ml.layers.Dense` layers.

    Parameters
    ----------
    layer_dims:
        ``[in, h1, ..., out]`` — at least input and output dims.
    hidden_activation / output_activation:
        activation names; the output activation determines the natural loss
        (``sigmoid`` → BCE, ``softmax`` → CCE, ``linear`` → MSE).
    dropout:
        optional dropout rate applied after every hidden layer.
    seed:
        deterministic weight init and shuffling.
    """

    def __init__(
        self,
        layer_dims: list[int],
        hidden_activation: str = "relu",
        output_activation: str = "sigmoid",
        dropout: float = 0.0,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if len(layer_dims) < 2:
            raise TrainingError(
                f"layer_dims needs at least [in, out], got {layer_dims}"
            )
        if any(int(d) < 1 for d in layer_dims):
            raise TrainingError(f"all layer dims must be >= 1, got {layer_dims}")
        self.layer_dims = [int(d) for d in layer_dims]
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self._rng = as_generator(seed)
        self.layers: list[Layer] = []
        dims = self.layer_dims
        for i in range(len(dims) - 1):
            is_last = i == len(dims) - 2
            act = output_activation if is_last else hidden_activation
            self.layers.append(
                Dense(dims[i], dims[i + 1], activation=act, rng=self._rng)
            )
            if dropout > 0.0 and not is_last:
                self.layers.append(Dropout(dropout, rng=self._rng))
        self.history = TrainHistory()

    # ------------------------------------------------------------------ #
    # Introspection used by backends and resource models
    # ------------------------------------------------------------------ #
    @property
    def n_params(self) -> int:
        """Total trainable parameters ``sum((in+1) * out)``."""
        return sum(layer.n_params for layer in self.layers)

    @property
    def dense_layers(self) -> list[Dense]:
        """The Dense layers in order (skipping dropout)."""
        return [layer for layer in self.layers if isinstance(layer, Dense)]

    @property
    def topology(self) -> list[int]:
        """Alias of ``layer_dims`` (what the paper reports as the model shape)."""
        return list(self.layer_dims)

    # ------------------------------------------------------------------ #
    # Forward / training
    # ------------------------------------------------------------------ #
    def forward(self, X: np.ndarray, training: bool = False) -> np.ndarray:
        """One forward pass through every layer; returns the activations.

        ``training=True`` enables train-time behaviour (e.g. dropout
        masking); inference callers leave it off.  A 1-D input is
        treated as a single sample.
        """
        out = np.asarray(X, dtype=float)
        if out.ndim == 1:
            out = out.reshape(1, -1)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _default_loss(self) -> str:
        return {"sigmoid": "bce", "softmax": "cce"}.get(self.output_activation, "mse")

    def fit(
        self,
        X,
        y,
        epochs: int = 20,
        batch_size: int = 32,
        learning_rate: float = 0.01,
        optimizer: "str | Optimizer" = "adam",
        validation_data: "tuple | None" = None,
        patience: int | None = None,
    ) -> TrainHistory:
        """Mini-batch gradient descent (:func:`train_epochs`).

        The output activation picks the loss (``sigmoid`` → BCE,
        ``softmax`` → CCE, otherwise MSE).  ``patience`` enables early
        stopping on validation loss (or training loss when no validation
        data is given).
        """
        X, y = check_training_data(X, y, self.layer_dims[-1], epochs, batch_size)
        opt = get_optimizer(optimizer, learning_rate)
        loss_fn = get_loss(self._default_loss())
        self.history = TrainHistory()
        best = np.inf
        since_best = 0
        for epoch_loss in train_epochs(self, "weights", X, y, epochs, batch_size,
                                       opt, loss_fn):
            self.history.loss.append(epoch_loss)
            monitored = epoch_loss
            if validation_data is not None:
                xv, yv = validation_data
                yv = np.asarray(yv, dtype=float)
                if yv.ndim == 1:
                    yv = yv.reshape(-1, 1)
                val = loss_fn.value(yv, self.forward(np.asarray(xv, dtype=float)))
                self.history.val_loss.append(val)
                monitored = val
            if patience is not None:
                if monitored < best - 1e-9:
                    best = monitored
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= patience:
                        break
        return self.history

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_proba(self, X) -> np.ndarray:
        """Raw network outputs (probabilities for sigmoid/softmax heads)."""
        return self.forward(np.asarray(X, dtype=float), training=False)

    def predict(self, X) -> np.ndarray:
        """Class labels: argmax for multi-class, 0.5 threshold for binary."""
        proba = self.predict_proba(X)
        if proba.shape[1] == 1:
            return (proba.ravel() >= 0.5).astype(int)
        return proba.argmax(axis=1)

    # ------------------------------------------------------------------ #
    # Weight access for code generation
    # ------------------------------------------------------------------ #
    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return ``[(W, b), ...]`` per Dense layer (copies)."""
        return [(d.weights.copy(), d.bias.copy()) for d in self.dense_layers]

    def set_weights(self, weights: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Load weights produced by :meth:`get_weights`."""
        dense = self.dense_layers
        if len(weights) != len(dense):
            raise TrainingError(
                f"expected {len(dense)} weight pairs, got {len(weights)}"
            )
        for layer, (w, b) in zip(dense, weights):
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise TrainingError(
                    f"weight shape mismatch for {layer!r}: {w.shape}, {b.shape}"
                )
            layer.weights = np.array(w, dtype=float)
            layer.bias = np.array(b, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = "->".join(str(d) for d in self.layer_dims)
        return f"NeuralNetwork({dims}, params={self.n_params})"
