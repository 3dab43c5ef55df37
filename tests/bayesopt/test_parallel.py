"""Tests for the parallel batched evaluation engine.

The headline property: for any worker count, :class:`ParallelEvaluator`
reproduces the serial ``BayesianOptimizer.run`` history bit for bit, as
long as the objective is a deterministic function of the configuration.
"""

import threading
import time

import pytest

from repro.bayesopt.cache import EvaluationCache
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.parallel import ParallelEvaluator
from repro.bayesopt.results import Evaluation
from repro.bayesopt.space import Categorical, DesignSpace, Integer, Real
from repro.errors import DesignSpaceError


def quadratic(config):
    return float(-(config["x"] - 3) ** 2 - (config["y"] + 2) ** 2)


def constrained(config):
    feasible = config["x"] + config["y"] <= 5
    return Evaluation(config=config, objective=quadratic(config), feasible=feasible)


def _history(result):
    return [(e.config, e.objective, e.feasible) for e in result.history]


@pytest.fixture
def space():
    return DesignSpace([Integer("x", -10, 10), Integer("y", -10, 10)])


class TestSerialEquivalence:
    """Same seed => same trajectory, for every worker count."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_identical_history_to_serial(self, space, k):
        serial = BayesianOptimizer(space, quadratic, warmup=4, seed=11).run(15)
        engine = ParallelEvaluator(space, quadratic, n_workers=k, warmup=4, seed=11)
        assert _history(engine.run(15)) == _history(serial)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_identical_history_with_feasibility(self, space, k):
        serial = BayesianOptimizer(space, constrained, warmup=4, seed=5).run(14)
        engine = ParallelEvaluator(space, constrained, n_workers=k, warmup=4, seed=5)
        assert _history(engine.run(14)) == _history(serial)

    def test_identical_history_mixed_space(self):
        mixed = DesignSpace(
            [Integer("x", 0, 20), Real("r", 0.0, 1.0), Categorical("c", ("a", "b"))]
        )

        def f(config):
            return float(config["x"] + config["r"] + (config["c"] == "a"))

        serial = BayesianOptimizer(mixed, f, warmup=3, seed=2).run(12)
        engine = ParallelEvaluator(mixed, f, n_workers=3, warmup=3, seed=2)
        assert _history(engine.run(12)) == _history(serial)

    def test_batch_size_does_not_change_history(self, space):
        serial = BayesianOptimizer(space, quadratic, warmup=4, seed=7).run(12)
        for batch in (1, 3, 6):
            engine = ParallelEvaluator(
                space, quadratic, n_workers=2, batch_size=batch, warmup=4, seed=7
            )
            assert _history(engine.run(12)) == _history(serial)

    def test_engine_runs_repeatedly(self, space):
        engine = ParallelEvaluator(space, quadratic, n_workers=2, warmup=4, seed=7)
        first = engine.run(8)
        assert len(first) == 8  # a second run continues from fresh RNG state


class TestEngineBehavior:
    def test_budget_respected(self, space):
        for budget in (1, 5, 9):
            engine = ParallelEvaluator(space, quadratic, n_workers=4, warmup=3, seed=0)
            assert len(engine.run(budget)) == budget

    def test_evaluations_actually_run_concurrently(self, space):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def slow(config):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.03)
            with lock:
                active["now"] -= 1
            return quadratic(config)

        engine = ParallelEvaluator(space, slow, n_workers=4, warmup=6, seed=0)
        engine.run(8)
        assert active["peak"] >= 2  # warmup batch overlaps in the pool

    def test_stats_reported(self, space):
        engine = ParallelEvaluator(space, quadratic, n_workers=2, warmup=3, seed=1)
        engine.run(10)
        assert engine.stats["rounds"] >= 1
        assert engine.stats["evaluated"] >= 10

    def test_shared_cache_skips_known_configs(self, space):
        cache = EvaluationCache()
        calls = []

        def counting(config):
            calls.append(dict(config))
            return quadratic(config)

        ParallelEvaluator(
            space, counting, n_workers=2, warmup=3, seed=4, cache=cache
        ).run(10)
        first_calls = len(calls)
        # A second engine with the same seed replays entirely from cache.
        ParallelEvaluator(
            space, counting, n_workers=2, warmup=3, seed=4, cache=cache
        ).run(10)
        assert len(calls) == first_calls

    def test_bad_arguments_raise(self, space):
        with pytest.raises(DesignSpaceError):
            ParallelEvaluator(space, quadratic, n_workers=0)
        with pytest.raises(DesignSpaceError):
            ParallelEvaluator(space, quadratic, n_workers=1, batch_size=0)
        with pytest.raises(DesignSpaceError):
            ParallelEvaluator(space, quadratic, executor="fiber")
        with pytest.raises(DesignSpaceError):
            ParallelEvaluator(space, quadratic).run(0)

    def test_objective_error_propagates(self, space):
        engine = ParallelEvaluator(space, lambda c: "oops", n_workers=2, seed=0)
        with pytest.raises(DesignSpaceError):
            engine.run(4)

    def test_speculative_failures_do_not_abort_the_run(self, space):
        # An objective that raises on part of the space: the run must only
        # fail if the *serial* trajectory reaches a raising config — purely
        # speculative failures are discarded.  Serial completing means the
        # parallel engine must too, with the identical history.
        def partial(config):
            if config["x"] > 0 and config["y"] > 0:
                raise RuntimeError("unlowerable region")
            return quadratic(config)

        # Seed 1: the serial trajectory avoids the region, but speculation
        # wanders into it (stats report the discarded failures).
        serial = BayesianOptimizer(space, partial, warmup=4, seed=1).run(12)
        engine = ParallelEvaluator(space, partial, n_workers=4, warmup=4, seed=1)
        assert _history(engine.run(12)) == _history(serial)
        assert engine.stats["speculative_failures"] >= 1


class TestRespeculation:
    """Divergences refill the pool with a fresh believer batch; the
    trajectory must not move, only the prefetch hit rate."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_hit_rate_improves_without_changing_history(self, space, seed):
        serial = BayesianOptimizer(space, quadratic, warmup=4, seed=seed).run(15)
        engine = ParallelEvaluator(space, quadratic, n_workers=4, warmup=4,
                                   seed=seed)
        assert _history(engine.run(15)) == _history(serial)
        assert engine.stats["respeculations"] >= 1
        assert engine.stats["speculative_hits"] >= 1

    def test_respeculated_failures_are_discarded(self, space):
        # Same contract as plain speculation: only the exact next serial
        # config may abort the run, even when it is pool-evaluated at a
        # divergence alongside respeculated believers.
        def partial(config):
            if config["x"] > 0 and config["y"] > 0:
                raise RuntimeError("unlowerable region")
            return quadratic(config)

        serial = BayesianOptimizer(space, partial, warmup=4, seed=1).run(12)
        engine = ParallelEvaluator(space, partial, n_workers=4, warmup=4, seed=1)
        assert _history(engine.run(12)) == _history(serial)


class TestProcessExecutor:
    def test_process_pool_matches_serial(self, space):
        serial = BayesianOptimizer(space, quadratic, warmup=3, seed=6).run(8)
        engine = ParallelEvaluator(
            space, quadratic, n_workers=2, warmup=3, seed=6, executor="process"
        )
        assert _history(engine.run(8)) == _history(serial)


class TestSuggestBatch:
    def test_returns_n_distinct_configs_under_dedupe(self, space):
        opt = BayesianOptimizer(space, quadratic, warmup=3, seed=0, dedupe=True)
        result = opt.run(6)  # past warmup: batch comes from the acquisition
        batch = opt.suggest_batch(result, 5)
        assert len(batch) == 5
        keys = {space.key(c) for c in batch}
        assert len(keys) == 5
        evaluated = {space.key(e.config) for e in result.history}
        assert not keys & evaluated

    def test_first_element_matches_serial_suggest(self, space):
        opt = BayesianOptimizer(space, quadratic, warmup=3, seed=9)
        result = opt.run(7)
        batch = opt.fork().suggest_batch(result, 4)
        nxt = opt.suggest(result)
        assert space.key(batch[0]) == space.key(nxt)

    def test_does_not_mutate_history(self, space):
        opt = BayesianOptimizer(space, quadratic, warmup=3, seed=0)
        result = opt.run(5)
        before = _history(result)
        opt.suggest_batch(result, 4)
        assert _history(result) == before

    def test_bad_batch_size_raises(self, space):
        opt = BayesianOptimizer(space, quadratic, warmup=3, seed=0)
        with pytest.raises(DesignSpaceError):
            opt.suggest_batch(opt.run(4), 0)


class TestForkSnapshot:
    def test_fork_does_not_consume_parent_rng(self, space):
        from repro.bayesopt.results import OptimizationResult

        a = BayesianOptimizer(space, quadratic, warmup=3, seed=42)
        b = BayesianOptimizer(space, quadratic, warmup=3, seed=42)
        fork = a.fork()
        fork.suggest_batch(OptimizationResult(), 3)  # burns only the fork's RNG
        assert _history(a.run(10)) == _history(b.run(10))

    def test_snapshot_restore_roundtrip(self, space):
        opt = BayesianOptimizer(space, quadratic, warmup=3, seed=8)
        result = opt.run(6)
        state = opt.snapshot()
        first = opt.suggest(result)
        opt.restore(state)
        again = opt.suggest(result)
        assert space.key(first) == space.key(again)
