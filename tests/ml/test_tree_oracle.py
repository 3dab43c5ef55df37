"""The presorted split engine builds exactly the oracle's trees.

``cart_oracle`` is the per-node-argsort CART the engine replaced.  For
every fit below the two must agree field by field — split feature,
threshold, and leaf value (array and dtype) — and leave the tree's RNG
in the same state, so forests built on either draw the same features at
every node.  The cases cover tied and duplicate ``X`` values, constant
columns, ``n`` from 1, the ``min_samples_leaf``/``min_samples_split``
edges, every ``max_features`` form, one to twelve classes, and
bootstrapped forests.
``test_tree_split_vectorized.py`` checks the engine's splits against
the oracle's O(n^2) base scan and the batched ``predict_proba``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cart_oracle
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _first_to_beat


def tolerates_empty_leaves(test):
    """Allow the warnings of an empty leaf, which both CARTs can grow.

    A midpoint threshold between neighbouring floats can round onto the
    upper value and send every row left: a regressor's right leaf is the
    mean of an empty slice, and ``predict_proba`` divides a classifier's
    all-zero counts by 0.
    """
    test = pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")(test)
    return pytest.mark.filterwarnings(
        "ignore:invalid value encountered in (scalar )?divide:RuntimeWarning")(test)


def assert_same_tree(got, want):
    assert got.root is not None and got.n_features_ == want.n_features_
    stack = [(got.root, want.root)]
    while stack:
        a, b = stack.pop()
        assert a.is_leaf == b.is_leaf
        assert a.value.dtype == b.value.dtype
        assert np.array_equal(a.value, b.value, equal_nan=True)
        if not a.is_leaf:
            assert (a.feature, a.threshold) == (b.feature, b.threshold)
            assert type(a.threshold) is type(b.threshold)
            stack += [(a.left, b.left), (a.right, b.right)]
    assert got._rng.bit_generator.state == want._rng.bit_generator.state
    assert_same_shape(got, want)


def assert_same_shape(got, want):
    # ``_walk`` replaced the oracle's three recursive counters.
    assert (got.depth, got.n_leaves, got.n_nodes) == (want.depth, want.n_leaves, want.n_nodes)


@st.composite
def datasets(draw, max_n=80):
    """``X`` with ties, duplicate rows and constant columns, plus a seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, (n, d))
    decimals = draw(st.sampled_from([None, 0, 1, "ulp"]))
    if decimals == "ulp":
        # Neighbouring floats: midpoint thresholds land on a data value.
        X = 1.0 + rng.integers(0, 4, (n, d)) * np.finfo(float).eps
    elif decimals is not None:
        X = np.round(X, decimals)  # ties within a feature
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # duplicate rows
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, np.array(constant)] = 1.5
    return X, rng


@st.composite
def tree_params(draw, d=5):
    return dict(
        max_depth=draw(st.integers(1, 7)),
        min_samples_split=draw(st.integers(2, 12)),
        min_samples_leaf=draw(st.integers(1, 10)),
        max_features=draw(st.one_of(
            st.none(), st.just("sqrt"), st.integers(1, d + 1))),
        seed=draw(st.integers(0, 2**16)),
    )


@given(data=datasets(), params=tree_params(), n_classes=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_classifier_matches_oracle(data, params, n_classes):
    X, rng = data
    labels = np.arange(n_classes) * 5 - 3  # non-contiguous, negative
    y = rng.choice(labels, size=X.shape[0])
    got = DecisionTreeClassifier(**params).fit(X, y)
    want = cart_oracle.DecisionTreeClassifier(**params).fit(X, y)
    assert np.array_equal(got.classes_, want.classes_)
    assert_same_tree(got, want)


@tolerates_empty_leaves
@given(data=datasets(), params=tree_params(), integer_y=st.booleans())
@settings(max_examples=200, deadline=None)
def test_regressor_matches_oracle(data, params, integer_y):
    X, rng = data
    y = rng.normal(0.0, 10.0, X.shape[0])
    if integer_y:
        y = np.round(y).astype(int)  # tied targets, integer sums
    got = DecisionTreeRegressor(**params).fit(X, y)
    want = cart_oracle.DecisionTreeRegressor(**params).fit(X, y)
    assert_same_tree(got, want)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 80))
@settings(max_examples=100, deadline=None)
def test_regressor_sums_ties_in_row_order(seed, n):
    # Targets that cancel catastrophically make every float sum depend on
    # the order of its terms, and three-level features tie most rows: only
    # a stable presort and partition reproduce the oracle's trees here.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (n, 5)).astype(float)
    y = rng.choice([1e16, -1e16, 1.0], size=n)
    got = DecisionTreeRegressor(max_depth=6, seed=0).fit(X, y)
    want = cart_oracle.DecisionTreeRegressor(max_depth=6, seed=0).fit(X, y)
    assert_same_tree(got, want)


def oracle_gains(tree, ys, parent):
    """The per-feature gain expressions of the oracle's ``_best_split``."""
    n = ys.shape[0]
    left_n = np.arange(1, n)
    right_n = n - left_n
    if isinstance(tree, DecisionTreeRegressor):
        cum_s, cum_q = np.cumsum(ys), np.cumsum(ys * ys)
        s_left, q_left = cum_s[:-1], cum_q[:-1]
        s_right, q_right = cum_s[-1] - s_left, cum_q[-1] - q_left
        var_left = np.maximum(q_left / left_n - (s_left / left_n) ** 2, 0.0)
        var_right = np.maximum(q_right / right_n - (s_right / right_n) ** 2, 0.0)
        return parent - (left_n * var_left + right_n * var_right) / n
    onehot = np.zeros((n, len(tree.classes_)))
    onehot[np.arange(n), ys] = 1.0
    cum = np.cumsum(onehot, axis=0)
    counts_left = cum[:-1]
    counts_right = cum[-1] - counts_left
    p_left = counts_left / left_n[:, None]
    p_right = counts_right / right_n[:, None]
    gini_left = 1.0 - np.sum(p_left * p_left, axis=1)
    gini_right = 1.0 - np.sum(p_right * p_right, axis=1)
    return parent - (left_n / n * gini_left + right_n / n * gini_right)


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 60),
    n_classes=st.integers(0, 12),
    min_leaf=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_split_gains_match_per_feature_expressions(seed, k, n, n_classes, min_leaf):
    # Exact to the bit, not just to the same tree: 0 classes means regressor.
    rng = np.random.default_rng(seed)
    if n_classes:
        tree = DecisionTreeClassifier()
        tree.classes_ = np.arange(n_classes)
        ys = rng.integers(0, n_classes, (k, n))
    else:
        tree = DecisionTreeRegressor()
        ys = rng.normal(0.0, 10.0, (k, n))
    parent = float(rng.random())
    lo, hi = min_leaf - 1, n - min_leaf
    if lo >= hi:
        return
    got = tree._split_gains(ys, lo, hi, parent)
    for row, gains in zip(ys, got):
        assert np.array_equal(gains, oracle_gains(tree, row, parent)[lo:hi])


class _OracleForestClassifier(RandomForestClassifier):
    _tree_class = cart_oracle.DecisionTreeClassifier


class _OracleForestRegressor(RandomForestRegressor):
    _tree_class = cart_oracle.DecisionTreeRegressor


@tolerates_empty_leaves
@given(
    data=datasets(max_n=40),
    max_features=st.sampled_from([None, "sqrt", 2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_bootstrapped_forests_match_oracle(data, max_features, seed):
    X, rng = data
    kw = dict(n_estimators=5, max_depth=6, max_features=max_features, seed=seed)
    query = np.vstack([X, rng.normal(0.0, 3.0, (20, X.shape[1]))])

    labels = rng.integers(0, 3, size=X.shape[0])
    got = RandomForestClassifier(**kw).fit(X, labels)
    want = _OracleForestClassifier(**kw).fit(X, labels)
    for a, b in zip(got.trees, want.trees):
        assert_same_tree(a, b)
    # equal_nan: a midpoint that rounds onto the upper value sends every
    # row left and leaves the right leaf empty.
    assert np.array_equal(
        got.predict_proba(query), want.predict_proba(query), equal_nan=True)

    y = rng.normal(size=X.shape[0])
    got = RandomForestRegressor(**kw).fit(X, y)
    want = _OracleForestRegressor(**kw).fit(X, y)
    for a, b in zip(got.trees, want.trees):
        assert_same_tree(a, b)
    for g, w in zip(got.predict_with_std(query), want.predict_with_std(query)):
        assert np.array_equal(g, w, equal_nan=True)


def test_unfitted_tree_shape_matches_oracle():
    assert_same_shape(DecisionTreeRegressor(), cart_oracle.DecisionTreeRegressor())


@given(labels=st.lists(st.sampled_from([-3, 7, 0, 12, -40]), min_size=1, max_size=50))
def test_encoded_targets_match_dict_lookup(labels):
    y = np.array(labels)
    want = cart_oracle.DecisionTreeClassifier()
    want._prepare_targets(y)
    a, b = DecisionTreeClassifier()._encoded_targets(y), want._encoded_targets(y)
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def sequential_first_to_beat(gains):
    best, pick = 0.0, -1
    for i, gain in enumerate(gains):
        if gain > best + 1e-12:
            best, pick = float(gain), i
    return pick


@given(
    base=st.lists(st.sampled_from([0.0, 0.25, 0.5, -0.1]), min_size=1, max_size=40),
    steps=st.lists(st.integers(-30, 30), min_size=40, max_size=40),
    holes=st.lists(st.sampled_from([None, -np.inf, np.nan]), min_size=40, max_size=40),
)
@example(base=[0.5] * 5, steps=[0, 9, 18, 27, 36] + [0] * 35, holes=[None] * 40)
@settings(max_examples=300, deadline=None)
def test_tie_rule_matches_sequential_scan(base, steps, holes):
    # Near-ties: offsets of a few 1e-13 around shared gains, so chains of
    # gains each within 1e-12 of the last are common.
    gains = np.array([b + s * 1e-13 for b, s in zip(base, steps)])
    for i, hole in enumerate(holes[:gains.size]):
        if hole is not None:
            gains[i] = hole
    assert _first_to_beat(gains) == sequential_first_to_beat(gains)
