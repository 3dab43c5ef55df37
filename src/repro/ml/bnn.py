"""Binarized neural networks (the N2Net approach, paper §2).

N2Net compiles binary neural networks to match-action pipelines by
"truncating model weights to a single bit value — doing so impacts
achievable model accuracy; but, the models can now run at line speed".
This module provides that alternative model family:

* weights are binarized to ±1 in the forward pass (latent float weights
  are trained with the straight-through estimator and clipped to [-1, 1]),
* hidden activations are ±1 via ``sign`` (STE gradient passes where the
  pre-activation lies in [-1, 1]),
* the output layer keeps real-valued logits for the decision stage.

Binary layers lower onto data planes as XNOR+popcount, so the Taurus
resource model charges them at :data:`BINARY_PACK` MACs per lane — the
accuracy-vs-resources trade-off the N2Net comparison bench explores.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.ml.losses import MeanSquaredError
from repro.ml.network import NeuralNetwork, check_training_data, train_epochs
from repro.ml.optimizers import get_optimizer
from repro.rng import as_generator

#: Binary multiply-accumulates packed per CU MAC lane (XNOR + popcount).
BINARY_PACK = 8


def binarize(weights: np.ndarray) -> np.ndarray:
    """Deterministic sign binarization with sign(0) = +1."""
    return np.where(weights >= 0.0, 1.0, -1.0)


class BinaryDense:
    """A fully connected layer with ±1 weights and optional ±1 activations.

    The layer holds *latent* float weights; forward always uses their
    sign, and :meth:`BinarizedNetwork.fit` trains and clamps them.
    ``binarize_output=False`` keeps real pre-activations (used for the
    final logit layer).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        binarize_output: bool = True,
        pre_scale: float = 1.0,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise TrainingError(f"layer dims must be >= 1, got {in_dim}x{out_dim}")
        if pre_scale <= 0:
            raise TrainingError(f"pre_scale must be positive, got {pre_scale}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.binarize_output = bool(binarize_output)
        # Pre-activation scaling keeps ±1-sum accumulators inside the STE
        # window; it is strictly positive and monotone, so the lowered
        # sign/threshold semantics are unchanged.
        self.pre_scale = float(pre_scale)
        rng = rng if rng is not None else np.random.default_rng()
        # Small uniform latent init keeps early sign flips likely.
        self.latent_weights = rng.uniform(-0.5, 0.5, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None
        self._grad_w = np.zeros_like(self.latent_weights)
        self._grad_b = np.zeros_like(self.bias)

    @property
    def binary_weights(self) -> np.ndarray:
        return binarize(self.latent_weights)

    @property
    def n_params(self) -> int:
        return int(self.latent_weights.size + self.bias.size)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = (x @ self.binary_weights + self.bias) * self.pre_scale
        if training:
            self._x, self._z = x, z
        if self.binarize_output:
            return binarize(z)
        return z

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None or self._z is None:
            raise TrainingError("backward() called before a training forward()")
        if self.binarize_output:
            # STE for sign: pass gradient where |z| <= 1.
            grad_z = grad_out * (np.abs(self._z) <= 1.0)
        else:
            grad_z = grad_out
        grad_pre = grad_z * self.pre_scale
        # STE for binary weights: apply dL/dWb to the latent weights.
        np.matmul(self._x.T, grad_pre, out=self._grad_w)
        np.add.reduce(grad_pre, axis=0, out=self._grad_b)
        return grad_pre @ self.binary_weights.T


class BinarizedNetwork:
    """A stack of :class:`BinaryDense` layers (real-valued logit head).

    API mirrors :class:`~repro.ml.network.NeuralNetwork` closely enough
    that the backends and the evaluator treat both uniformly.
    """

    def __init__(
        self,
        layer_dims: list,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if len(layer_dims) < 2:
            raise TrainingError(f"layer_dims needs at least [in, out], got {layer_dims}")
        if any(int(d) < 1 for d in layer_dims):
            raise TrainingError(f"all layer dims must be >= 1, got {layer_dims}")
        self.layer_dims = [int(d) for d in layer_dims]
        self._rng = as_generator(seed)
        self.layers: list = []
        for i in range(len(self.layer_dims) - 1):
            is_last = i == len(self.layer_dims) - 2
            in_dim = self.layer_dims[i]
            # Hidden layers scale by 1/sqrt(in) (keeps sums in the STE
            # window); the logit head scales by 1/in (mean pooling) so
            # squared-error targets of ±1 are well-matched.
            scale = 1.0 / in_dim if is_last else 1.0 / np.sqrt(in_dim)
            self.layers.append(
                BinaryDense(
                    in_dim,
                    self.layer_dims[i + 1],
                    binarize_output=not is_last,
                    pre_scale=scale,
                    rng=self._rng,
                )
            )

    @property
    def topology(self) -> list:
        return list(self.layer_dims)

    @property
    def n_params(self) -> int:
        return sum(layer.n_params for layer in self.layers)

    forward = NeuralNetwork.forward

    def fit(
        self,
        X,
        y,
        epochs: int = 30,
        batch_size: int = 32,
        learning_rate: float = 0.01,
        optimizer: str = "adam",
    ) -> list:
        """Mini-batch training with the straight-through estimator.

        Binary/multi-class targets use the same squared-error-on-logits
        objective N2Net-style trainers favour (stable under STE noise),
        with {0, 1} targets mapped onto ±1.  Runs :func:`train_epochs`
        with the latent weights clamped to [-1, 1] after every step;
        returns the per-epoch loss curve.
        """
        X, y = check_training_data(X, y, self.layer_dims[-1], epochs, batch_size)
        targets = np.where(y > 0, 1.0, -1.0)
        opt = get_optimizer(optimizer, learning_rate)
        return list(train_epochs(self, "latent_weights", X, targets, epochs,
                                 batch_size, opt, MeanSquaredError(), clamp=True))

    def predict(self, X) -> np.ndarray:
        logits = self.forward(X, training=False)
        if logits.shape[1] == 1:
            return (logits.ravel() >= 0.0).astype(int)
        return logits.argmax(axis=1)
