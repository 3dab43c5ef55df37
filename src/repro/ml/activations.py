"""Activation functions and their derivatives.

Each activation is a small class with ``forward`` and ``backward`` so the
network can chain them; ``backward`` receives the *forward output* (not the
input), which is sufficient for every function here and avoids caching the
pre-activation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError


class Activation:
    """Base class; subclasses implement elementwise forward/backward."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, out: np.ndarray) -> np.ndarray:
        """Return d(activation)/d(pre-activation) evaluated from ``out``."""
        raise NotImplementedError


class Linear(Activation):
    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, out: np.ndarray) -> np.ndarray:
        return np.ones_like(out)


class ReLU(Activation):
    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, out: np.ndarray) -> np.ndarray:
        return (out > 0.0).astype(out.dtype)


class Sigmoid(Activation):
    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Clip to avoid overflow in exp for extreme pre-activations.
        x = np.minimum(np.maximum(x, -60.0), 60.0)
        return 1.0 / (1.0 + np.exp(-x))

    def backward(self, out: np.ndarray) -> np.ndarray:
        return out * (1.0 - out)


class Tanh(Activation):
    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, out: np.ndarray) -> np.ndarray:
        return 1.0 - out**2


class Softmax(Activation):
    """Row-wise softmax.

    ``backward`` returns ones because softmax is only ever paired with
    categorical cross-entropy, whose combined gradient is ``probs - onehot``;
    the loss supplies that directly.
    """

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def backward(self, out: np.ndarray) -> np.ndarray:
        return np.ones_like(out)


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Linear, ReLU, Sigmoid, Tanh, Softmax)
}


def get_activation(name: "str | Activation") -> Activation:
    """Resolve an activation by name (or pass an instance through)."""
    if isinstance(name, Activation):
        return name
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise TrainingError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
