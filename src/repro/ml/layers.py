"""Network layers: Dense (fully connected) and Dropout.

Layers cache whatever the backward pass needs during forward; ``backward``
returns the gradient with respect to the layer input and writes parameter
gradients into the layer's gradient arrays, in place, for the optimizer
step (during ``fit`` those arrays are views into one gradient vector).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.ml.activations import Activation, get_activation
from repro.ml.initializers import get_initializer


class Layer:
    """Base layer interface."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters keyed by name (empty for stateless layers)."""
        return {}

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`parameters` keys."""
        return {}

    @property
    def n_params(self) -> int:
        """Total trainable scalar parameter count."""
        return sum(int(np.prod(p.shape)) for p in self.parameters().values())


class Dense(Layer):
    """Fully connected layer ``y = activation(x W + b)``.

    This is the unit the Taurus backend lowers to a map/reduce pair and the
    unit the resource model counts CUs/MUs for, so it exposes ``in_dim`` /
    ``out_dim`` / ``activation`` as inspectable attributes.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: "str | Activation" = "relu",
        weight_init: str = "glorot_uniform",
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise TrainingError(f"layer dims must be >= 1, got {in_dim}x{out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = get_activation(activation)
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(weight_init)
        self.weights = init(rng, self.in_dim, self.out_dim)
        self.bias = np.zeros(self.out_dim)
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None
        self._grad_w = np.zeros_like(self.weights)
        self._grad_b = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise TrainingError(
                f"Dense expected input dim {self.in_dim}, got {x.shape[-1]}"
            )
        self._x = x if training else None
        out = self.activation.forward(x @ self.weights + self.bias)
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None or self._out is None:
            raise TrainingError("backward() called before a training forward()")
        grad_pre = grad_out * self.activation.backward(self._out)
        np.matmul(self._x.T, grad_pre, out=self._grad_w)
        np.add.reduce(grad_pre, axis=0, out=self._grad_b)
        return grad_pre @ self.weights.T

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def gradients(self) -> dict[str, np.ndarray]:
        return {"weights": self._grad_w, "bias": self._grad_b}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dense({self.in_dim}->{self.out_dim}, {self.activation.name})"


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise TrainingError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
