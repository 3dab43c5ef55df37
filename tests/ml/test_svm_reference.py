"""LinearSVM training is bit-identical to the reference step loop.

``ReferenceSVM`` keeps the original sub-gradient step (``np.sqrt``
decay, ``np.any`` test, fancy-indexed ``.mean`` gradients).  The
optimised loop must reproduce its ``coef_`` and ``intercept_`` exactly,
including batches where no row or every row is inside the margin.
"""

import numpy as np
import pytest

from repro.ml.svm import LinearSVM


class ReferenceSVM(LinearSVM):
    """The original step loop, counting no-active and all-active steps."""

    steps = {"none": 0, "all": 0}

    def _fit_binary(self, X, y_signed):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        lam = 1.0 / (self.C * n)
        step = 0
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = X[idx], y_signed[idx]
                step += 1
                lr = self.learning_rate / np.sqrt(step)
                margins = yb * (xb @ w + b)
                active = margins < 1.0
                grad_w = lam * w
                grad_b = 0.0
                if not np.any(active):
                    ReferenceSVM.steps["none"] += 1
                elif np.all(active):
                    ReferenceSVM.steps["all"] += 1
                if np.any(active):
                    grad_w = grad_w - (yb[active, None] * xb[active]).mean(axis=0)
                    grad_b = -yb[active].mean()
                w -= lr * grad_w
                b -= lr * grad_b
        return w, b


def _data(seed, n, d, n_classes, spread):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, spread, (n_classes, d))
    y = rng.integers(0, n_classes, n)
    y[:n_classes] = np.arange(n_classes)
    return centers[y] + rng.normal(0.0, 1.0, (n, d)), y


CASES = [
    # (seed, n, d, classes, spread, C, epochs, lr, batch): n % batch != 0
    # in most; separable blobs reach steps with no active rows.
    (0, 130, 4, 2, 6.0, 1.0, 20, 0.1, 64),
    (1, 200, 7, 2, 1.0, 10.0, 8, 0.5, 32),
    (2, 97, 3, 3, 5.0, 0.5, 15, 0.1, 16),
    (3, 256, 5, 4, 2.0, 1.0, 5, 0.05, 64),
    (4, 61, 2, 2, 8.0, 100.0, 30, 1.0, 7),
    (5, 50, 6, 3, 0.5, 1.0, 4, 0.1, 128),  # one batch per epoch
]


@pytest.mark.parametrize("case", CASES)
def test_coefficients_bit_identical_to_reference(case):
    seed, n, d, n_classes, spread, C, epochs, lr, batch = case
    X, y = _data(seed, n, d, n_classes, spread)
    kwargs = dict(C=C, epochs=epochs, learning_rate=lr, batch_size=batch, seed=seed)
    fast = LinearSVM(**kwargs).fit(X, y)
    ref = ReferenceSVM(**kwargs).fit(X, y)
    assert np.array_equal(fast.coef_, ref.coef_)
    assert np.array_equal(fast.intercept_, ref.intercept_)
    assert fast.intercept_.dtype == ref.intercept_.dtype


def test_cases_cover_empty_and_full_active_sets():
    ReferenceSVM.steps = {"none": 0, "all": 0}
    for seed, n, d, n_classes, spread, C, epochs, lr, batch in CASES:
        X, y = _data(seed, n, d, n_classes, spread)
        ReferenceSVM(C=C, epochs=epochs, learning_rate=lr, batch_size=batch,
                     seed=seed).fit(X, y)
    assert ReferenceSVM.steps["none"] > 0
    assert ReferenceSVM.steps["all"] > 0
