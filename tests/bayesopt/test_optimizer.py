"""Tests for the BO loop, random-search baseline, and result records."""

import numpy as np
import pytest

from repro.bayesopt.optimizer import BayesianOptimizer, RandomSearchOptimizer
from repro.bayesopt.results import Evaluation, OptimizationResult
from repro.bayesopt.scalarization import RandomScalarizer, pareto_front
from repro.bayesopt.space import DesignSpace, Integer
from repro.errors import DesignSpaceError


@pytest.fixture
def quadratic_space():
    return DesignSpace([Integer("x", -10, 10), Integer("y", -10, 10)])


def quadratic(config):
    return -(config["x"] - 3) ** 2 - (config["y"] + 2) ** 2


def constrained_quadratic(config):
    feasible = config["x"] + config["y"] <= 5
    return Evaluation(
        config=config,
        objective=quadratic(config),
        feasible=feasible,
        metrics={"sum": config["x"] + config["y"]},
    )


class TestRandomSearch:
    def test_budget_respected(self, quadratic_space):
        result = RandomSearchOptimizer(quadratic_space, quadratic, seed=0).run(17)
        assert len(result) == 17

    def test_finds_decent_point(self, quadratic_space):
        result = RandomSearchOptimizer(quadratic_space, quadratic, seed=0).run(100)
        assert result.best.objective > -20

    def test_bad_budget_raises(self, quadratic_space):
        with pytest.raises(DesignSpaceError):
            RandomSearchOptimizer(quadratic_space, quadratic).run(0)


class TestBayesianOptimizer:
    def test_beats_random_on_average(self, quadratic_space):
        bo_scores = []
        rs_scores = []
        for seed in range(3):
            bo = BayesianOptimizer(quadratic_space, quadratic, warmup=5, seed=seed)
            bo_scores.append(bo.run(25).best.objective)
            rs = RandomSearchOptimizer(quadratic_space, quadratic, seed=seed)
            rs_scores.append(rs.run(25).best.objective)
        assert np.mean(bo_scores) >= np.mean(rs_scores)

    def test_finds_optimum_region(self, quadratic_space):
        bo = BayesianOptimizer(quadratic_space, quadratic, warmup=5, seed=1)
        best = bo.run(40).best
        assert best.objective > -5  # near (3, -2)

    def test_respects_feasibility(self, quadratic_space):
        bo = BayesianOptimizer(
            quadratic_space, constrained_quadratic, warmup=5, seed=0
        )
        result = bo.run(30)
        assert result.best.feasible
        assert result.best.config["x"] + result.best.config["y"] <= 5

    def test_deterministic_under_seed(self, quadratic_space):
        a = BayesianOptimizer(quadratic_space, quadratic, warmup=3, seed=9).run(12)
        b = BayesianOptimizer(quadratic_space, quadratic, warmup=3, seed=9).run(12)
        assert [e.config for e in a.history] == [e.config for e in b.history]

    def test_dedupe_avoids_repeats_in_small_space(self):
        space = DesignSpace([Integer("x", 0, 4)])
        seen = []

        def f(config):
            seen.append(config["x"])
            return float(config["x"])

        BayesianOptimizer(space, f, warmup=2, seed=0).run(5)
        assert len(set(seen)) == 5  # all 5 values visited exactly once

    def test_bad_return_type_raises(self, quadratic_space):
        bo = BayesianOptimizer(quadratic_space, lambda c: "oops", warmup=1, seed=0)
        with pytest.raises(DesignSpaceError):
            bo.run(2)

    def test_bad_warmup_raises(self, quadratic_space):
        with pytest.raises(DesignSpaceError):
            BayesianOptimizer(quadratic_space, quadratic, warmup=0)


class TestOptimizationResult:
    def test_incumbent_curve_monotone(self, quadratic_space):
        result = RandomSearchOptimizer(quadratic_space, quadratic, seed=2).run(20)
        curve = [v for v in result.incumbent_curve() if v is not None]
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_incumbent_none_until_feasible(self):
        result = OptimizationResult()
        result.append(Evaluation(config={}, objective=1.0, feasible=False))
        result.append(Evaluation(config={}, objective=0.5, feasible=True))
        assert result.incumbent_curve() == [None, 0.5]

    def test_best_none_when_all_infeasible(self):
        result = OptimizationResult()
        result.append(Evaluation(config={}, objective=1.0, feasible=False))
        assert result.best is None
        assert result.best_objective is None

    def test_feasibility_rate(self):
        result = OptimizationResult()
        result.append(Evaluation(config={}, objective=1.0, feasible=True))
        result.append(Evaluation(config={}, objective=1.0, feasible=False))
        assert result.feasibility_rate() == 0.5


class TestScalarization:
    def test_weights_sum_to_one(self):
        scalarizer = RandomScalarizer(["f1", "latency"], seed=0)
        weights = scalarizer.resample()
        assert weights.sum() == pytest.approx(1.0)

    def test_combine_flips_minimized(self):
        scalarizer = RandomScalarizer(["f1", "latency"], minimize=["latency"], seed=0)
        scalarizer.weights = np.array([0.5, 0.5])
        combined = scalarizer.combine({"f1": 0.8, "latency": 100.0})
        assert combined == pytest.approx(0.5 * 0.8 - 0.5 * 100.0)

    def test_missing_value_raises(self):
        scalarizer = RandomScalarizer(["a", "b"], seed=0)
        with pytest.raises(DesignSpaceError):
            scalarizer.combine({"a": 1.0})

    def test_unknown_minimize_raises(self):
        with pytest.raises(DesignSpaceError):
            RandomScalarizer(["a"], minimize=["b"])

    def test_pareto_front_identifies_dominated(self):
        points = [
            {"f1": 0.9, "speed": 1.0},
            {"f1": 0.8, "speed": 0.5},  # dominated by the first
            {"f1": 0.95, "speed": 0.2},
        ]
        front = pareto_front(points, ["f1", "speed"])
        assert 0 in front and 2 in front and 1 not in front

    def test_pareto_empty(self):
        assert pareto_front([], ["a"]) == []
