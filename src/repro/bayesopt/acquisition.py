"""Acquisition functions.

The paper selects the Expected Improvement criterion (§5, citing Mockus et
al. 1978); the feasibility-weighted form multiplies EI by the predicted
probability of feasibility, the standard treatment for unknown constraints
(Gelbart et al. 2014, cited by the paper).
"""

from __future__ import annotations

import numpy as np


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """EI for maximization: ``E[max(f - best - xi, 0)]`` under N(mean, std²)."""
    # Imported here: scipy.stats costs about a second to import, and
    # only the search, not every importer of repro, needs it.
    from scipy.stats import norm

    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * norm.cdf(z) + std * norm.pdf(z)
    # Degenerate (zero-std) points fall back to plain improvement.
    ei = np.where(std > 0, ei, np.maximum(improvement, 0.0))
    return np.maximum(ei, 0.0)


def probability_of_feasibility(pof: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clamp a probability-of-feasibility vector into ``[floor, 1]``.

    A small floor keeps the acquisition from zeroing out whole regions early
    on, when the feasibility model has seen very little data.
    """
    return np.clip(np.asarray(pof, dtype=float), floor, 1.0)


def constrained_expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_feasible: float | None,
    pof: np.ndarray,
    xi: float = 0.0,
    pof_floor: float = 0.01,
) -> np.ndarray:
    """EI x P(feasible); pure feasibility search until something feasible exists.

    When no feasible point has been observed yet there is no incumbent to
    improve on, so the acquisition reduces to the probability of
    feasibility — exactly how constrained BO bootstraps itself.
    """
    pof = probability_of_feasibility(pof, floor=pof_floor)
    if best_feasible is None:
        return pof
    return expected_improvement(mean, std, best_feasible, xi=xi) * pof
