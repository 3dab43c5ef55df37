"""Gradient-descent optimizers (SGD with momentum, Adam).

An optimizer keeps its state (velocity, moments, step count) per
string key and updates the parameter array in place, reusing scratch
buffers allocated on the key's first step.  The networks train through
one key: :func:`flatten` lays every layer's weights and biases out in
one vector, so a mini-batch step is a single :meth:`Optimizer.update`.
A key's Adam or momentum state is fixed to the shape it first saw;
handing it another shape (an optimizer reused on a different network)
is a :class:`~repro.errors.TrainingError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError


def flatten(slots: list[tuple[object, str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """Copy parameters into one vector and rebind them as views into it.

    ``slots`` lists ``(owner, param_attr, grad_attr)``.  Each owner's
    parameter array is copied into the returned float64 parameter vector
    and both attributes are rebound to reshaped views: the parameter
    into that vector, the gradient into the returned gradient vector.
    Layers then read and write their own arrays as before while the
    optimizer steps both vectors at once.
    """
    arrays = [getattr(owner, param) for owner, param, _ in slots]
    size = sum(a.size for a in arrays)
    flat = np.empty(size)
    flat_grad = np.zeros(size)
    offset = 0
    for (owner, param, grad), array in zip(slots, arrays):
        end = offset + array.size
        view = flat[offset:end].reshape(array.shape)
        view[...] = array
        setattr(owner, param, view)
        setattr(owner, grad, flat_grad[offset:end].reshape(array.shape))
        offset = end
    return flat, flat_grad


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

    @staticmethod
    def _check_shape(key: str, state: np.ndarray, param: np.ndarray) -> None:
        if state.shape != param.shape:
            raise TrainingError(
                f"optimizer state for {key!r} has shape {state.shape} but the "
                f"parameter has shape {param.shape}; use a fresh optimizer "
                "for each network"
            )


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        # key -> (velocity, scratch)
        self._state: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        state = self._state.get(key)
        # Plain SGD carries nothing between steps: a new shape gets new buffers.
        if state is None or (not self.momentum and state[1].shape != param.shape):
            state = self._state[key] = (np.zeros_like(param), np.empty_like(param))
        self._check_shape(key, state[0], param)
        velocity, step = state
        np.multiply(grad, self.learning_rate, out=step)
        if self.momentum:
            # v = momentum * v - lr * grad; param += v
            velocity *= self.momentum
            velocity -= step
            param += velocity
        else:
            param -= step

    def reset(self) -> None:
        self._state.clear()


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
        # key -> [m, v, scratch, scratch, t]
        self._state: dict[str, list] = {}

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = [
                np.zeros_like(param), np.zeros_like(param),
                np.empty_like(param), np.empty_like(param), 0,
            ]
        else:
            self._check_shape(key, state[0], param)
        m, v, step, denom, t = state
        t += 1
        state[4] = t
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        m += step
        # v = beta2 * v + (1 - beta2) * grad**2
        v *= self.beta2
        np.square(grad, out=denom)
        denom *= 1.0 - self.beta2
        v += denom
        # param -= lr * m_hat / (sqrt(v_hat) + epsilon)
        np.divide(m, 1.0 - self.beta1**t, out=step)
        step *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        step /= denom
        param -= step

    def reset(self) -> None:
        self._state.clear()


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
