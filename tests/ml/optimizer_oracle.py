"""The per-key optimizers and per-layer training step the flat vector replaced.

This is ``repro.ml.optimizers`` as it stood before every network trained
through one parameter vector, kept verbatim below, plus the old training
loops of ``NeuralNetwork.fit`` and ``BinarizedNetwork.fit`` as
functions of the network.  Each layer's gradient is a fresh array per
backward pass, and every mini-batch step updates each weight and bias
array under its own ``"<layer>.<name>"`` key, with fresh temporaries for
every expression.  ``test_flat_training.py`` requires the flat path's
weights, loss curves and predictions to equal this module's byte for
byte.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.ml.bnn import BinaryDense
from repro.ml.layers import Dense
from repro.ml.losses import get_loss
from repro.ml.network import TrainHistory


class Optimizer:
    """Base class; ``update`` applies a gradient step in place."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all accumulated state (used when re-training from scratch)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        if self.momentum:
            v = self._velocity.get(key)
            if v is None:
                v = np.zeros_like(param)
            v = self.momentum * v - self.learning_rate * grad
            self._velocity[key] = v
            param += v
        else:
            param -= self.learning_rate * grad

    def reset(self) -> None:
        self._velocity.clear()


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise TrainingError("beta1/beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        self._m[key], self._v[key] = m, v
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t.clear()


def get_optimizer(name: "str | Optimizer", learning_rate: float = 0.01) -> Optimizer:
    """Resolve an optimizer by name with the given learning rate."""
    if isinstance(name, Optimizer):
        return name
    if name == "sgd":
        return SGD(learning_rate)
    if name == "momentum":
        return SGD(learning_rate, momentum=0.9)
    if name == "adam":
        return Adam(learning_rate)
    raise TrainingError(f"unknown optimizer {name!r}; available: adam, sgd, momentum")


def backward(layer, grad_out: np.ndarray) -> np.ndarray:
    """A layer's backward pass, storing freshly allocated gradients."""
    if isinstance(layer, Dense):
        grad_pre = grad_out * layer.activation.backward(layer._out)
    elif isinstance(layer, BinaryDense):
        if layer.binarize_output:
            grad_z = grad_out * (np.abs(layer._z) <= 1.0)
        else:
            grad_z = grad_out
        grad_pre = grad_z * layer.pre_scale
    else:
        return layer.backward(grad_out)
    layer._grad_w = layer._x.T @ grad_pre
    layer._grad_b = grad_pre.sum(axis=0)
    weights = layer.weights if isinstance(layer, Dense) else layer.binary_weights
    return grad_pre @ weights.T


def apply_update(layer: BinaryDense, optimizer: Optimizer, key: str) -> None:
    """``BinaryDense.apply_update``: step and clip one binary layer."""
    optimizer.update(f"{key}.w", layer.latent_weights, layer._grad_w)
    optimizer.update(f"{key}.b", layer.bias, layer._grad_b)
    np.clip(layer.latent_weights, -1.0, 1.0, out=layer.latent_weights)


def fit_network(
    self,
    X,
    y,
    epochs: int = 20,
    batch_size: int = 32,
    learning_rate: float = 0.01,
    optimizer: "str | Optimizer" = "adam",
    loss=None,
    validation_data: "tuple | None" = None,
    patience: int | None = None,
) -> TrainHistory:
    """``NeuralNetwork.fit`` with one optimizer key per weight and bias."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    opt = get_optimizer(optimizer, learning_rate)
    loss_fn = get_loss(loss if loss is not None else self._default_loss())
    self.history = TrainHistory()
    best = np.inf
    since_best = 0
    n = X.shape[0]
    for _epoch in range(epochs):
        order = self._rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            pred = self.forward(xb, training=True)
            epoch_loss += loss_fn.value(yb, pred)
            batches += 1
            grad = loss_fn.gradient(yb, pred)
            for layer in reversed(self.layers):
                grad = backward(layer, grad)
            for li, layer in enumerate(self.layers):
                params = layer.parameters()
                grads = layer.gradients()
                for key in params:
                    opt.update(f"{li}.{key}", params[key], grads[key])
        epoch_loss /= max(batches, 1)
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


def fit_binarized(
    self,
    X,
    y,
    epochs: int = 30,
    batch_size: int = 32,
    learning_rate: float = 0.01,
    optimizer: "str | Optimizer" = "adam",
) -> list:
    """``BinarizedNetwork.fit`` with a per-layer ``apply_update``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    targets = np.where(y > 0, 1.0, -1.0)
    opt = get_optimizer(optimizer, learning_rate)
    losses = []
    n = X.shape[0]
    for _ in range(int(epochs)):
        order = self._rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, int(batch_size)):
            idx = order[start : start + int(batch_size)]
            xb, tb = X[idx], targets[idx]
            logits = self.forward(xb, training=True)
            epoch_loss += float(np.mean((logits - tb) ** 2))
            batches += 1
            grad = 2.0 * (logits - tb) / tb.size
            for layer in reversed(self.layers):
                grad = backward(layer, grad)
            for li, layer in enumerate(self.layers):
                apply_update(layer, opt, str(li))
        losses.append(epoch_loss / max(batches, 1))
    return losses
