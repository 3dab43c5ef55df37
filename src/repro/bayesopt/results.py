"""Evaluation records and optimization results.

An :class:`Evaluation` is one black-box query: the configuration, the
objective it achieved, whether it met every feasibility constraint, and any
auxiliary metrics the evaluator reported (resource counts, latency, ...).
:class:`OptimizationResult` is the full trajectory plus conveniences for
regret plots (Figures 4 and 7 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DesignSpaceError
from repro.fsio import jsonable
from repro.wire import Fields


@dataclass
class Evaluation:
    """One evaluated configuration.

    :meth:`to_dict` / :meth:`from_dict` are its one JSON codec, shared by
    the cache spills and the shard results.
    """

    config: dict
    objective: float
    feasible: bool = True
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.objective = float(self.objective)
        self.feasible = bool(self.feasible)

    def to_dict(self) -> dict:
        """The JSON form (numpy scalars in ``config``/``metrics`` coerced)."""
        return {
            "config": jsonable(self.config),
            "objective": float(self.objective),
            "feasible": bool(self.feasible),
            "metrics": jsonable(self.metrics),
        }

    @classmethod
    def from_dict(cls, doc, where: str) -> "Evaluation":
        """Read :meth:`to_dict`'s form back.

        A malformed ``doc`` raises :class:`~repro.errors.DesignSpaceError`
        whose message starts with ``where`` and names the bad field.
        """
        fields = Fields(doc, where, ("config", "objective", "feasible", "metrics"),
                        DesignSpaceError)
        return cls(
            config=fields.mapping("config"),
            objective=fields.number("objective"),
            feasible=fields.boolean("feasible"),
            metrics=fields.mapping("metrics", {}),
        )


def coerce_evaluation(config: dict, outcome) -> Evaluation:
    """Normalize a black-box return value into an :class:`Evaluation`.

    Objective callables may return a full :class:`Evaluation` or a bare
    number (treated as a feasible objective); anything else is an error.
    """
    if isinstance(outcome, Evaluation):
        return outcome
    if isinstance(outcome, (int, float, np.floating, np.integer)):
        return Evaluation(config=config, objective=float(outcome), feasible=True)
    raise DesignSpaceError(
        f"objective function must return Evaluation or number, got {type(outcome)!r}"
    )


@dataclass
class OptimizationResult:
    """Complete history of an optimization run (maximization)."""

    history: list = field(default_factory=list)

    def append(self, evaluation: Evaluation) -> None:
        self.history.append(evaluation)

    def __len__(self) -> int:
        return len(self.history)

    @property
    def feasible_history(self) -> list:
        return [e for e in self.history if e.feasible]

    @property
    def best(self) -> "Evaluation | None":
        """Best *feasible* evaluation, or ``None`` if none was found."""
        feasible = self.feasible_history
        if not feasible:
            return None
        return max(feasible, key=lambda e: e.objective)

    @property
    def best_objective(self) -> "float | None":
        best = self.best
        return best.objective if best is not None else None

    def objectives(self) -> list:
        """Raw per-iteration objective values (the dots of a regret plot)."""
        return [e.objective for e in self.history]

    def incumbent_curve(self) -> list:
        """Best-feasible-so-far at each iteration (``None`` until feasible)."""
        curve: list = []
        best: "float | None" = None
        for e in self.history:
            if e.feasible and (best is None or e.objective > best):
                best = e.objective
            curve.append(best)
        return curve

    def feasibility_rate(self) -> float:
        """Fraction of evaluations that were feasible."""
        if not self.history:
            return 0.0
        return len(self.feasible_history) / len(self.history)
