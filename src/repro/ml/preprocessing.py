"""Feature preprocessing: a standard scaler and a one-hot label encoder.

These mirror the scikit-learn API shape (``fit`` / ``transform`` /
``fit_transform``) because that is what the paper's data loaders assume, but
they are implemented from scratch on numpy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError


def _as_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise DatasetError(f"expected 1-D or 2-D feature array, got ndim={X.ndim}")
    return X


class StandardScaler:
    """Standardize features to zero mean and unit variance.

    Constant features (zero variance) are left centred but unscaled so the
    transform never divides by zero.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        """Learn per-feature mean and standard deviation from ``X``."""
        X = _as_2d(X)
        if X.shape[0] == 0:
            raise DatasetError("cannot fit StandardScaler on an empty array")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X) -> np.ndarray:
        """Center and scale ``X`` with the fitted statistics."""
        if self.mean_ is None or self.scale_ is None:
            raise DatasetError("StandardScaler used before fit()")
        X = _as_2d(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise DatasetError(
                f"feature count mismatch: fit on {self.mean_.shape[0]}, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        """:meth:`fit` on ``X``, then :meth:`transform` the same array."""
        return self.fit(X).transform(X)


class OneHotEncoder:
    """One-hot encode integer class labels.

    ``n_classes`` may be given explicitly (useful when a mini-batch may not
    contain every class); otherwise it is inferred from the fit data.
    """

    def __init__(self, n_classes: int | None = None) -> None:
        if n_classes is not None and n_classes < 1:
            raise DatasetError(f"n_classes must be >= 1, got {n_classes}")
        self.n_classes = n_classes

    def fit(self, y) -> "OneHotEncoder":
        """Infer ``n_classes`` from ``y`` when not given at construction."""
        y = np.asarray(y, dtype=int)
        if self.n_classes is None:
            if y.size == 0:
                raise DatasetError("cannot infer n_classes from empty labels")
            self.n_classes = int(y.max()) + 1
        return self

    def transform(self, y) -> np.ndarray:
        """Encode integer labels as ``(len(y), n_classes)`` one-hot rows."""
        if self.n_classes is None:
            raise DatasetError("OneHotEncoder used before fit()")
        y = np.asarray(y, dtype=int)
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise DatasetError(
                f"labels out of range [0, {self.n_classes}) for one-hot encoding"
            )
        out = np.zeros((y.shape[0], self.n_classes), dtype=float)
        out[np.arange(y.shape[0]), y] = 1.0
        return out

    def fit_transform(self, y) -> np.ndarray:
        """:meth:`fit` on ``y``, then :meth:`transform` the same labels."""
        return self.fit(y).transform(y)
