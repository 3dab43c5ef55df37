"""The batched MAT interpreter equals a per-row table walk, bit for bit.

``oracle_predict`` below is the row-at-a-time interpreter: it walks the
tables for one feature row, scanning entries in table order.  The
batched :class:`MatInterpreter` must return the same array, element for
element and dtype for dtype, on lowered models and on hand-built tables
with gaps and overlapping entries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.tofino.bmv2 import MatInterpreter
from repro.backends.tofino.iisy import KEY_MAX, KEY_MIN, lower_kmeans, lower_svm, lower_tree
from repro.backends.tofino.mat import (
    KEY_FRACTION_BITS,
    ClusterDistanceTable,
    DecisionTable,
    FeatureScoreTable,
    MatPipeline,
    RangeEntry,
    TreeEntry,
    TreeLevelTable,
)
from repro.ml.kmeans import KMeans
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier


def _oracle_row(pipeline: MatPipeline, feature_codes: np.ndarray) -> int:
    scores = None
    distances: dict = {}
    node = 0
    leaf_class = -1
    for table in pipeline.match_tables:
        if isinstance(table, FeatureScoreTable):
            key = int(feature_codes[table.feature_index])
            entry = next((e for e in table.entries if e.matches(key)), None)
            if entry is None:
                continue
            if scores is None:
                scores = np.zeros(table.n_classes, dtype=np.int64)
            scores += np.asarray(entry.data, dtype=np.int64)
        elif isinstance(table, ClusterDistanceTable):
            distances[table.cluster_index] = table.distance(feature_codes)
        elif isinstance(table, TreeLevelTable):
            if leaf_class >= 0:
                continue
            entry = next(
                (
                    e for e in table.entries
                    if e.node == node
                    and e.lo <= int(feature_codes[e.feature_index]) < e.hi
                ),
                None,
            )
            if entry is None:
                continue
            if entry.leaf_class >= 0:
                leaf_class = entry.leaf_class
            else:
                node = entry.next_node
    decision = pipeline.decision
    if decision.kind == "argmax_score":
        if scores is None:
            scores = np.zeros(decision.n_classes, dtype=np.int64)
        if decision.bias_codes is not None:
            scores = scores + decision.bias_codes
        return int(np.argmax(scores))
    if decision.kind == "argmin_distance":
        if not distances:
            return 0
        return min(distances, key=lambda k: (distances[k], k))
    return leaf_class if leaf_class >= 0 else 0


def oracle_predict(pipeline: MatPipeline, X) -> np.ndarray:
    """Per-row reference for :meth:`MatInterpreter.predict`."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    codes = np.round(X * 2**KEY_FRACTION_BITS).astype(np.int64)
    raw = np.array([_oracle_row(pipeline, row) for row in codes], dtype=int)
    labels = pipeline.class_labels
    if labels is not None and pipeline.decision.kind != "leaf":
        return np.asarray(labels)[raw]
    return raw


def assert_same(pipeline: MatPipeline, X) -> None:
    got = MatInterpreter(pipeline).predict(X)
    want = oracle_predict(pipeline, X)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def datasets(draw):
    """Labelled training data plus a query batch (1-row batches included).

    Some query rows are scaled far out, so their keys land outside
    ``[KEY_MIN, KEY_MAX)``.
    """
    seed = draw(st.integers(0, 2**16))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, draw(st.sampled_from([0.5, 20.0, 300.0])), (80, n_features))
    y = rng.integers(0, n_classes, 80)
    y[:n_classes] = np.arange(n_classes)  # every class present
    y = y * draw(st.sampled_from([1, 3]))  # labels need not be 0..k-1
    n_query = draw(st.sampled_from([1, 2, 37]))
    query = rng.normal(0.0, 1.0, (n_query, n_features)) * X.std(axis=0) * 3
    if draw(st.booleans()):
        far = rng.random(query.shape) < 0.3
        query[far] *= float(KEY_MAX)  # keys beyond 2^38: outside every range
    return X, y, query


@given(data=datasets(), scaled=st.booleans(), epochs=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_lowered_svm_matches_oracle(data, scaled, epochs):
    X, y, query = data
    scaler = StandardScaler().fit(X) if scaled else None
    Xtr = scaler.transform(X) if scaled else X
    svm = LinearSVM(epochs=epochs, seed=0).fit(Xtr, y)  # binary or one-vs-rest
    pipeline = lower_svm(svm, X, scaler=scaler, bins=8)
    assert_same(pipeline, query)
    assert_same(pipeline, X)


@given(data=datasets(), depth=st.integers(1, 6), min_leaf=st.sampled_from([1, 10]))
@settings(max_examples=40, deadline=None)
def test_lowered_tree_matches_oracle(data, depth, min_leaf):
    X, y, query = data
    # Pure nodes stop early, so leaves sit at several levels.
    tree = DecisionTreeClassifier(max_depth=depth, min_samples_leaf=min_leaf, seed=0)
    pipeline = lower_tree(tree.fit(X, y))
    assert_same(pipeline, query)
    assert_same(pipeline, X)


@given(data=datasets(), k=st.integers(1, 4), scaled=st.booleans())
@settings(max_examples=25, deadline=None)
def test_lowered_kmeans_matches_oracle(data, k, scaled):
    X, _, query = data
    scaler = StandardScaler().fit(X) if scaled else None
    km = KMeans(n_clusters=k, seed=0).fit(scaler.transform(X) if scaled else X)
    pipeline = lower_kmeans(km, scaler=scaler)
    assert_same(pipeline, query)


# Hand-built tables: gaps, overlaps and unmatched nodes the lowering
# never emits, so "first matching entry" is exercised in full.
@st.composite
def ranges(draw):
    lo = draw(st.integers(-500, 500))
    return lo, lo + draw(st.integers(1, 800))


@st.composite
def score_pipelines(draw):
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 3))
    score = st.integers(-(2**20), 2**20)
    tables = []
    for t in range(draw(st.integers(0, 4))):
        entries = [
            RangeEntry(lo, hi, tuple(draw(score) for _ in range(n_classes)))
            for lo, hi in draw(st.lists(ranges(), min_size=1, max_size=6))
        ]
        tables.append(FeatureScoreTable(
            name=f"f{t}", feature_index=draw(st.integers(0, n_features - 1)),
            entries=entries,
        ))
    bias = None
    if draw(st.booleans()):
        bias = np.array([draw(score) for _ in range(n_classes)], dtype=np.int64)
    tables.append(DecisionTable("vote", "argmax_score", n_classes, bias_codes=bias))
    labels = None
    if draw(st.booleans()):
        labels = np.array([10 * c + 1 for c in range(n_classes)])
    return MatPipeline("p", n_features, tables, class_labels=labels)


@st.composite
def tree_pipelines(draw):
    n_features = draw(st.integers(1, 3))
    tables = []
    for level in range(draw(st.integers(1, 4))):
        entries = []
        for _ in range(draw(st.integers(1, 10))):
            lo, hi = draw(ranges())
            outcome = draw(st.integers(0, 5))
            leaf = draw(st.booleans())
            entries.append(TreeEntry(
                node=draw(st.integers(0, 2)),
                feature_index=draw(st.integers(0, n_features - 1)),
                lo=lo, hi=hi,
                next_node=-1 if leaf else outcome,
                leaf_class=outcome if leaf else -1,
            ))
        tables.append(TreeLevelTable(name=f"l{level}", level=level, entries=entries))
    tables.append(DecisionTable("leaf", "leaf", 6))
    return MatPipeline("t", n_features, tables, class_labels=np.arange(6))


@st.composite
def queries(draw, n_features):
    """Raw rows whose keys straddle the hand-built ranges, plus keys just
    outside ``[KEY_MIN, KEY_MAX)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.sampled_from([1, 2, 40]))
    codes = rng.integers(-700, 700, (n, n_features))
    far = rng.random(codes.shape) < 0.1
    codes[far] = rng.choice([KEY_MIN - 1, KEY_MAX], size=int(far.sum()))
    return codes / 2**KEY_FRACTION_BITS


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hand_built_score_tables_match_oracle(data):
    pipeline = data.draw(score_pipelines())
    assert_same(pipeline, data.draw(queries(pipeline.n_features)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hand_built_tree_tables_match_oracle(data):
    pipeline = data.draw(tree_pipelines())
    assert_same(pipeline, data.draw(queries(pipeline.n_features)))


def test_one_dimensional_input_is_one_row():
    rng = np.random.default_rng(0)
    X = rng.normal(0.0, 1.0, (60, 3))
    y = (X[:, 0] > 0).astype(int)
    pipeline = lower_svm(LinearSVM(epochs=2, seed=0).fit(X, y), X, bins=8)
    got = MatInterpreter(pipeline).predict(X[0])
    assert got.shape == (1,)
    assert_same(pipeline, X[0])
