"""Forests grown by the batched engine equal forests of oracle trees.

The engine splits a batch of nodes of every tree per pass;
``cart_oracle`` grows one tree at a time, one node at a time.  The
forests here use the Bayesian-optimization surrogate's own settings
(24 bootstrapped trees, ``max_depth=12``) on surrogate-sized data: 1 to
25 rows, 1 to 4 columns, duplicated rows and objectives with ties and
collapsed ``0.0`` values.  Every tree, its RNG state and the forest's
predictions on a 256-row pool must match; so must a whole
``BayesianOptimizer.run``, which refits both forests every iteration.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cart_oracle
from repro.bayesopt import surrogate
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.results import Evaluation
from repro.bayesopt.space import DesignSpace, Integer, Real
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import _first_to_beat
from test_tree_oracle import assert_same_tree, sequential_first_to_beat, tolerates_empty_leaves


class _OracleForestClassifier(RandomForestClassifier):
    _tree_class = cart_oracle.DecisionTreeClassifier


class _OracleForestRegressor(RandomForestRegressor):
    _tree_class = cart_oracle.DecisionTreeRegressor


def surrogate_forest(cls, max_features, seed):
    return cls(n_estimators=24, max_depth=12, max_features=max_features,
               bootstrap=True, seed=seed)


@st.composite
def surrogate_data(draw):
    """Encoded configurations, objectives with ties and zeros, 0/1 labels, a pool."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([None, 2, 5]))  # None: continuous columns
    if levels is None:
        X = rng.random((n, d))
    else:
        X = rng.integers(0, levels, (n, d)) / (levels - 1)
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # duplicated rows
    y = np.round(rng.normal(0.5, 0.3, n), draw(st.sampled_from([1, 2, 8])))
    y[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0  # collapsed
    labels = (rng.random(n) < 0.6).astype(int)
    pool = np.vstack([rng.random((256 - n, d)), X])
    return X, y, labels, pool


def assert_same_forest(got, want):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert_same_tree(a, b)
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


@tolerates_empty_leaves
@given(data=surrogate_data(), max_features=st.sampled_from([None, "sqrt", 2]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_surrogate_regressor_matches_oracle_forest(data, max_features, seed):
    X, y, _, pool = data
    got = surrogate_forest(RandomForestRegressor, max_features, seed).fit(X, y)
    want = surrogate_forest(_OracleForestRegressor, max_features, seed).fit(X, y)
    assert_same_forest(got, want)
    for g, w in zip(got.predict_with_std(pool), want.predict_with_std(pool)):
        assert np.array_equal(g, w, equal_nan=True)


@tolerates_empty_leaves
@given(data=surrogate_data(), max_features=st.sampled_from([None, "sqrt", 2]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_feasibility_classifier_matches_oracle_forest(data, max_features, seed):
    X, _, labels, pool = data
    got = surrogate_forest(RandomForestClassifier, max_features, seed).fit(X, labels)
    want = surrogate_forest(_OracleForestClassifier, max_features, seed).fit(X, labels)
    assert_same_forest(got, want)
    assert np.array_equal(got.predict_proba(pool), want.predict_proba(pool), equal_nan=True)


def test_forest_of_oracle_trees_grows_one_tree_at_a_time():
    # The oracle forests must not run the engine: their trees are fitted
    # by the oracle's own ``fit``, tree after tree.
    assert not hasattr(cart_oracle.DecisionTreeRegressor, "_fit_many")
    X = np.arange(12.0).reshape(6, 2)
    forest = surrogate_forest(_OracleForestRegressor, None, 0).fit(X, np.arange(6.0))
    assert all(isinstance(t, cart_oracle.DecisionTreeRegressor) for t in forest.trees)


def plateau(config):
    """Objective with ties and a flat 0.0 floor; infeasible above a line."""
    score = max(0.0, 6.0 - abs(config["x"] - 3) - abs(config["y"] - 1)) // 2
    return Evaluation(config=config, objective=score + round(config["r"], 1),
                      feasible=config["x"] + config["y"] <= 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimizer_history_matches_oracle_forests(seed, monkeypatch):
    space = DesignSpace([Integer("x", 0, 7), Integer("y", 0, 5), Real("r", 0.0, 1.0)])

    def history():
        result = BayesianOptimizer(space, plateau, warmup=5, seed=seed).run(20)
        return [(e.config, e.objective, e.feasible) for e in result.history]

    got = history()
    monkeypatch.setattr(surrogate, "RandomForestRegressor", _OracleForestRegressor)
    monkeypatch.setattr(surrogate, "RandomForestClassifier", _OracleForestClassifier)
    want = history()
    assert got == want
    assert len({e[2] for e in got}) == 2  # the feasibility forest was trained


def near_tie_rows(base, steps, holes, width):
    gains = np.array([b + s * 1e-13 for b, s in zip(base, steps)])
    for i, hole in enumerate(holes[:gains.size]):
        if hole is not None:
            gains[i] = hole
    return gains[:gains.size // width * width].reshape(-1, width)


@given(
    base=st.lists(st.sampled_from([0.0, 0.25, 0.5, -0.1, 1e-12]), min_size=1, max_size=60),
    steps=st.lists(st.integers(-30, 30), min_size=60, max_size=60),
    holes=st.lists(st.sampled_from([None, None, -np.inf, np.nan]), min_size=60, max_size=60),
    width=st.integers(1, 12),
)
@example(base=[0.5] * 10, steps=[0, 9, 18, 27, 36] * 2 + [0] * 50, holes=[None] * 60, width=5)
@example(base=[0.25, 0.5] * 5, steps=[0] * 60, holes=[None, np.nan] * 30, width=2)
@settings(max_examples=300, deadline=None)
def test_row_wise_tie_rule_matches_sequential_scan(base, steps, holes, width):
    # Each row is one node's gains: near-tie chains of a few 1e-13, -inf
    # and NaN holes, rows where nothing beats 0.
    rows = near_tie_rows(base, steps, holes, width)
    if rows.size == 0:
        return
    want = [sequential_first_to_beat(row) for row in rows]
    assert _first_to_beat(rows).tolist() == want
