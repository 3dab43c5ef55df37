"""Property-based tests over schedules, lowering, and simulators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alchemy import DataLoader, Model
from repro.alchemy.schedule import ScheduleNode
from repro.backends.tofino.bmv2 import MatInterpreter
from repro.backends.tofino.iisy import lower_tree
from repro.backends.tofino.mat import encode_key
from repro.backends.taurus.ir import lower_network
from repro.backends.taurus.resources import estimate_dnn_resources
from repro.backends.taurus.simulator import TaurusSimulator
from repro.ml.network import NeuralNetwork
from repro.ml.tree import DecisionTreeClassifier


# --------------------------------------------------------------------------- #
# Schedule composition
# --------------------------------------------------------------------------- #
def _fresh_model(tag: int) -> Model:
    @DataLoader
    def loader():
        raise AssertionError("schedule tests never load data")

    return Model(name=f"m{tag}", data_loader=loader)


@st.composite
def schedule_trees(draw, max_depth=3):
    """Random composition trees over a pool of models."""
    pool = [_fresh_model(i) for i in range(draw(st.integers(1, 4)))]

    def build(depth: int):
        if depth >= max_depth or draw(st.booleans()):
            return ScheduleNode.leaf(pool[draw(st.integers(0, len(pool) - 1))])
        kind = draw(st.sampled_from(["seq", "par"]))
        left = build(depth + 1)
        right = build(depth + 1)
        if kind == "seq":
            return ScheduleNode.sequential(left, right)
        return ScheduleNode.parallel(left, right)

    return build(0)


@given(node=schedule_trees())
@settings(max_examples=60, deadline=None)
def test_schedule_dag_is_acyclic_with_one_node_per_model_instance(node):
    import networkx as nx

    graph = node.to_dag()
    assert nx.is_directed_acyclic_graph(graph)
    assert graph.number_of_nodes() == len(node.models())


@given(node=schedule_trees())
@settings(max_examples=60, deadline=None)
def test_distinct_models_subset_of_models(node):
    models = node.models()
    distinct = node.distinct_models()
    assert len(distinct) <= len(models)
    assert {id(m) for m in distinct} == {id(m) for m in models}


@given(node=schedule_trees(), seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_effective_throughput_is_min_over_used_models(node, seed):
    rng = np.random.default_rng(seed)
    rates = {m.name: float(rng.uniform(0.1, 2.0)) for m in node.distinct_models()}
    effective = node.effective_throughput(rates)
    used = [rates[m.name] for m in node.models()]
    assert effective == pytest.approx(min(used))


@given(node=schedule_trees())
@settings(max_examples=40, deadline=None)
def test_describe_balanced_parentheses(node):
    text = node.describe()
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        assert depth >= 0
    assert depth == 0


# --------------------------------------------------------------------------- #
# Tree -> MAT lowering exactness on random data
# --------------------------------------------------------------------------- #
def key_boundary_rows(tree, X):
    """Rows whose software path meets a split whose key they share.

    The MAT matches the quantised key, so a row with
    ``encode_key(x_f) == encode_key(threshold)`` takes the ``<=`` branch
    in hardware even when ``x_f`` is just above the threshold.
    """
    boundary = np.zeros(X.shape[0], dtype=bool)
    for r, x in enumerate(X):
        node = tree.root
        while not node.is_leaf:
            value = x[node.feature]
            boundary[r] |= encode_key(value) == encode_key(node.threshold)
            node = node.left if value <= node.threshold else node.right
    return boundary


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(30, 120),
    depth=st.integers(1, 5),
)
# x = 40.53488 against a threshold of 40.53389: both quantise to key 10377.
@example(seed=5177, n=30, depth=1)
@settings(max_examples=25, deadline=None)
def test_random_tree_lowering_is_near_exact(seed, n, depth):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 50.0, (n, 3))
    y = ((X[:, 0] + X[:, 1] > 0) ^ (X[:, 2] > 10)).astype(int)
    if np.unique(y).size < 2:
        return  # degenerate label draw
    tree = DecisionTreeClassifier(max_depth=depth, seed=0).fit(X, y)
    pipeline = lower_tree(tree)
    hw = MatInterpreter(pipeline).predict(X)
    mismatch = hw != tree.predict(X)
    # Only key-quantisation boundary rows may disagree; every other row
    # follows the software path exactly.
    assert not np.any(mismatch & ~key_boundary_rows(tree, X))


# --------------------------------------------------------------------------- #
# Taurus lowering and resource-model properties
# --------------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 2**16),
    hidden=st.lists(st.integers(2, 12), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_untrained_network_lowering_runs_and_labels_in_range(seed, hidden):
    net = NeuralNetwork([5, *hidden, 1], seed=seed)
    sim = TaurusSimulator(lower_network(net))
    X = np.random.default_rng(seed).normal(0, 1, (20, 5))
    out = sim.predict(X)
    assert out.shape == (20,)
    assert set(np.unique(out)) <= {0, 1}


@given(width=st.integers(2, 40), depth=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_resource_estimate_monotone_in_width_and_depth(width, depth):
    base, _ = estimate_dnn_resources([7] + [width] * depth + [1])
    wider, _ = estimate_dnn_resources([7] + [width + 1] * depth + [1])
    deeper, _ = estimate_dnn_resources([7] + [width] * (depth + 1) + [1])
    assert wider["cus"] >= base["cus"]
    assert wider["mus"] >= base["mus"]
    assert deeper["cus"] >= base["cus"]
    assert deeper["mus"] >= base["mus"]


@given(seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_simulator_deterministic(seed):
    net = NeuralNetwork([4, 6, 1], seed=seed)
    sim = TaurusSimulator(lower_network(net))
    X = np.random.default_rng(seed).normal(0, 1, (10, 4))
    assert np.array_equal(sim.predict(X), sim.predict(X))
