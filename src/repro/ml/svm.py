"""Linear support-vector machine trained with sub-gradient descent.

IIsy maps SVMs onto match-action tables one feature at a time, so the
backend needs direct access to ``coef_`` / ``intercept_``; a linear
primal-form SVM (hinge loss + L2) keeps that mapping exact.  Multi-class is
one-vs-rest, matching the per-class vote tables the P4 backend emits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrainingError
from repro.rng import as_generator


class LinearSVM:
    """L2-regularised linear SVM (binary or one-vs-rest multi-class).

    Parameters
    ----------
    C:
        inverse regularisation strength (larger = less regularisation).
    epochs / learning_rate / batch_size:
        sub-gradient descent schedule; the learning rate decays as 1/sqrt(t).
    """

    def __init__(
        self,
        C: float = 1.0,
        epochs: int = 50,
        learning_rate: float = 0.1,
        batch_size: int = 64,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if C <= 0:
            raise TrainingError(f"C must be positive, got {C}")
        if epochs < 1 or batch_size < 1 or learning_rate <= 0:
            raise TrainingError("epochs/batch_size must be >=1 and learning_rate > 0")
        self.C = float(C)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self._rng = as_generator(seed)
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None  # (n_classes_or_1, n_features)
        self.intercept_: np.ndarray | None = None

    def _fit_binary(self, X: np.ndarray, y_signed: np.ndarray) -> tuple[np.ndarray, float]:
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        lam = 1.0 / (self.C * n)
        step = 0
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            X_epoch, y_epoch = X[order], y_signed[order]
            for start in range(0, n, self.batch_size):
                xb = X_epoch[start : start + self.batch_size]
                yb = y_epoch[start : start + self.batch_size]
                step += 1
                lr = self.learning_rate / math.sqrt(step)
                margins = yb * (xb @ w + b)
                active = margins < 1.0
                grad_w = lam * w
                grad_b = 0.0
                k = np.count_nonzero(active)
                if k:
                    if k < yb.size:
                        xb, yb = xb[active], yb[active]
                    # add.reduce / k is the reduction .mean() runs.
                    grad_w = grad_w - np.add.reduce(yb[:, None] * xb, axis=0) / k
                    grad_b = -(np.add.reduce(yb) / k)
                w -= lr * grad_w
                b -= lr * grad_b
        return w, b

    def fit(self, X, y) -> "LinearSVM":
        """Train on integer class labels (any number of classes >= 2)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        if X.ndim != 2:
            raise TrainingError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise TrainingError("X and y disagree on sample count")
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise TrainingError("need at least two classes to train an SVM")
        if self.classes_.size == 2:
            signed = np.where(y == self.classes_[1], 1.0, -1.0)
            w, b = self._fit_binary(X, signed)
            self.coef_ = w.reshape(1, -1)
            self.intercept_ = np.array([b])
        else:
            ws, bs = [], []
            for cls in self.classes_:
                signed = np.where(y == cls, 1.0, -1.0)
                w, b = self._fit_binary(X, signed)
                ws.append(w)
                bs.append(b)
            self.coef_ = np.stack(ws)
            self.intercept_ = np.array(bs)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed margins; shape (n,) for binary, (n, k) for multi-class."""
        if self.coef_ is None or self.intercept_ is None or self.classes_ is None:
            raise TrainingError("LinearSVM used before fit()")
        X = np.asarray(X, dtype=float)
        scores = X @ self.coef_.T + self.intercept_
        if self.classes_.size == 2:
            return scores.ravel()
        return scores

    def predict(self, X) -> np.ndarray:
        """Predicted class labels (same dtype as the training labels)."""
        if self.classes_ is None:
            raise TrainingError("LinearSVM used before fit()")
        scores = self.decision_function(X)
        if self.classes_.size == 2:
            return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])
        return self.classes_[np.argmax(scores, axis=1)]

    @property
    def n_params(self) -> int:
        """Stored parameter count (weights + intercepts)."""
        if self.coef_ is None or self.intercept_ is None:
            return 0
        return int(self.coef_.size + self.intercept_.size)
