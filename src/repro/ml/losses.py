"""Training losses with analytic gradients.

Gradients are taken with respect to the network's final *output* (post
activation); the softmax/sigmoid + cross-entropy pairs use the standard
fused gradient for numerical stability.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError

_EPS = 1e-12


class Loss:
    """Base class: ``value`` for monitoring, ``gradient`` for backprop."""

    name = "loss"

    def value(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, y_true: np.ndarray, y_pred: np.ndarray) -> tuple:
        """``(value, gradient)`` of one training batch."""
        return self.value(y_true, y_pred), self.gradient(y_true, y_pred)


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))`` without the ``fromnumeric`` wrapper."""
    return float(np.add.reduce(x, axis=None) / x.size)


class MeanSquaredError(Loss):
    name = "mse"

    def value(self, y_true, y_pred) -> float:
        return _mean((y_pred - y_true) ** 2)

    def gradient(self, y_true, y_pred) -> np.ndarray:
        return 2.0 * (y_pred - y_true) / y_true.size


class BinaryCrossEntropy(Loss):
    """BCE over sigmoid outputs; gradient assumes the sigmoid pairing."""

    name = "bce"

    @staticmethod
    def _clip(y_pred) -> np.ndarray:
        return np.minimum(np.maximum(y_pred, _EPS), 1.0 - _EPS)

    @staticmethod
    def _value(y_true, p) -> float:
        return -_mean(y_true * np.log(p) + (1.0 - y_true) * np.log(1.0 - p))

    @staticmethod
    def _gradient(y_true, p) -> np.ndarray:
        # Fused with sigmoid: dL/dz = (p - y)/N. The Sigmoid.backward factor
        # is divided back out so layer chaining stays uniform.
        return (p - y_true) / (p * (1.0 - p)) / y_true.size

    def value(self, y_true, y_pred) -> float:
        return self._value(y_true, self._clip(y_pred))

    def gradient(self, y_true, y_pred) -> np.ndarray:
        return self._gradient(y_true, self._clip(y_pred))

    def value_and_gradient(self, y_true, y_pred) -> tuple:
        p = self._clip(y_pred)  # once for both
        return self._value(y_true, p), self._gradient(y_true, p)


class CategoricalCrossEntropy(Loss):
    """CCE over softmax outputs (one-hot targets); uses the fused gradient."""

    name = "cce"

    def value(self, y_true, y_pred) -> float:
        p = np.clip(y_pred, _EPS, 1.0)
        return float(-np.mean(np.sum(y_true * np.log(p), axis=-1)))

    def gradient(self, y_true, y_pred) -> np.ndarray:
        # Softmax.backward returns ones, so this is the fused softmax+CCE grad.
        return (y_pred - y_true) / y_true.shape[0]


class Hinge(Loss):
    """Mean hinge loss for ±1 labels (linear SVM training)."""

    name = "hinge"

    def value(self, y_true, y_pred) -> float:
        return float(np.mean(np.maximum(0.0, 1.0 - y_true * y_pred)))

    def gradient(self, y_true, y_pred) -> np.ndarray:
        active = (y_true * y_pred) < 1.0
        return np.where(active, -y_true, 0.0) / y_true.shape[0]


_REGISTRY: dict[str, type[Loss]] = {
    cls.name: cls
    for cls in (MeanSquaredError, BinaryCrossEntropy, CategoricalCrossEntropy, Hinge)
}


def get_loss(name: "str | Loss") -> Loss:
    """Resolve a loss by name (or pass an instance through)."""
    if isinstance(name, Loss):
        return name
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise TrainingError(f"unknown loss {name!r}; available: {sorted(_REGISTRY)}") from None
