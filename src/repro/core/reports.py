"""Compilation reports: what ``generate()`` hands back to the user."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import CompiledPipeline, PerformanceEstimate
from repro.bayesopt.results import OptimizationResult


@dataclass
class ModelReport:
    """Outcome of the search for one scheduled model.

    ``pipeline`` is the winner's :class:`CompiledPipeline` as the final
    selection step trained and lowered it — ready to serve, so callers
    never retrain the winner.  It stays in memory only: exports and
    comparisons ignore it.
    """

    name: str
    algorithm: str
    best_config: dict
    objective: float
    float_objective: float
    metric: str
    feasible: bool
    resources: dict
    performance: PerformanceEstimate
    n_params: int
    sources: dict
    metadata: dict = field(default_factory=dict)
    optimization: "OptimizationResult | None" = None
    candidate_results: dict = field(default_factory=dict)
    pipeline: "CompiledPipeline | None" = field(
        default=None, repr=False, compare=False
    )

    def summary_row(self) -> str:
        res = ", ".join(f"{k}={v}" for k, v in sorted(self.resources.items()))
        return (
            f"{self.name}: {self.algorithm} {self.metric}={self.objective:.4f} "
            f"(float {self.float_objective:.4f}), params={self.n_params}, {res}"
        )


@dataclass
class CompileReport:
    """Everything ``generate()`` produced for one platform.

    Per-model search outcomes (winning algorithm, configuration,
    objective, resource usage, generated sources) keyed by model name,
    plus platform-level accounting: the combined resource footprint and
    whether every model fit the target's constraints.

    Example::

        report = repro.generate(platform, budget=20, seed=0)
        print(report.summary())          # one row per scheduled model
        if report.feasible:
            best = report.best           # single-model convenience
            print(best.algorithm, best.best_config)
    """

    target: str
    constraints: dict
    schedule: str
    models: dict = field(default_factory=dict)  # name -> ModelReport
    total_resources: dict = field(default_factory=dict)
    feasible: bool = True
    seed: int = 0

    @property
    def best(self) -> "ModelReport | None":
        """The single model report when exactly one model was scheduled."""
        if len(self.models) == 1:
            return next(iter(self.models.values()))
        return None

    def model(self, name: str) -> ModelReport:
        """The :class:`ModelReport` for one scheduled model by name."""
        return self.models[name]

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"Homunculus compile report — target={self.target}, "
            f"schedule={self.schedule}, feasible={self.feasible}",
        ]
        for report in self.models.values():
            lines.append("  " + report.summary_row())
        if self.total_resources:
            total = ", ".join(
                f"{k}={v}" for k, v in sorted(self.total_resources.items())
            )
            lines.append(f"  total resources: {total}")
        return "\n".join(lines)
