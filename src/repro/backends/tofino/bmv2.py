"""Behavioral match-action pipeline interpreter (the BMv2 stand-in).

Executes a :class:`~repro.backends.tofino.mat.MatPipeline` on feature
vectors exactly as the switch would: quantize features to integer match
keys, walk the tables in order mutating metadata (score accumulators /
distance registers / tree cursor), and let the decision table emit the
class.  Used both as the deployed model's executable form and to verify
that generated table programs agree with the trained model.

Every table operation is applied to the whole batch at once, the vector
form a per-packet ML pipeline uses: one integer compare finds each row's
first matching entry, and per-row metadata lives in arrays.  Results
are bit-identical to walking the tables one row at a time.
"""

from __future__ import annotations

import numpy as np

from repro.backends.tofino.mat import (
    KEY_FRACTION_BITS,
    ClusterDistanceTable,
    FeatureScoreTable,
    MatPipeline,
    TreeLevelTable,
)
from repro.errors import BackendError


class MatInterpreter:
    """Run a MAT pipeline over batches of raw feature rows."""

    def __init__(self, pipeline: MatPipeline) -> None:
        self.pipeline = pipeline

    @staticmethod
    def _score(table: FeatureScoreTable, codes: np.ndarray) -> np.ndarray:
        """Per-row scores of one feature table; no matching entry adds 0."""
        lo, hi = np.array([(e.lo, e.hi) for e in table.entries], dtype=np.int64).T
        data = np.array([e.data for e in table.entries], dtype=np.int64)
        keys = codes[:, table.feature_index, None]
        hits = (keys >= lo) & (keys < hi)
        return np.where(hits.any(axis=1)[:, None], data[hits.argmax(axis=1)], 0)

    @staticmethod
    def _advance(
        table: TreeLevelTable, codes: np.ndarray, node: np.ndarray, leaf: np.ndarray
    ) -> None:
        """One tree level: move undecided rows' cursors, or decide them.

        A row matches only entries of its current node, so entries are
        grouped by node (stable, keeping table order within a node) and
        each row tests just its own node's group.
        """
        grouped = sorted(table.entries, key=lambda e: e.node)
        e_node, e_feature, e_lo, e_hi, e_next, e_leaf = np.array(
            [(e.node, e.feature_index, e.lo, e.hi, e.next_node, e.leaf_class)
             for e in grouped],
            dtype=np.int64,
        ).T

        rows = np.flatnonzero(leaf < 0)  # rows decided earlier stop moving
        cursor = node[rows]
        start = np.searchsorted(e_node, cursor, side="left")
        count = np.searchsorted(e_node, cursor, side="right") - start
        found = np.full(rows.size, -1, dtype=np.int64)
        for k in range(int(count.max(initial=0))):
            probe = np.flatnonzero((found < 0) & (count > k))
            entry = start[probe] + k
            key = codes[rows[probe], e_feature[entry]]
            matched = (e_lo[entry] <= key) & (key < e_hi[entry])
            found[probe[matched]] = entry[matched]
        hit = found >= 0
        rows, entry = rows[hit], found[hit]
        decided = e_leaf[entry] >= 0
        leaf[rows[decided]] = e_leaf[entry[decided]]
        node[rows[~decided]] = e_next[entry[~decided]]

    def _run(self, codes: np.ndarray) -> np.ndarray:
        n = codes.shape[0]
        scores: "np.ndarray | None" = None
        distances: dict[int, list] = {}
        node = np.zeros(n, dtype=np.int64)
        leaf = np.full(n, -1, dtype=np.int64)
        for table in self.pipeline.match_tables:
            if isinstance(table, FeatureScoreTable):
                partial = self._score(table, codes)
                scores = partial if scores is None else scores + partial
            elif isinstance(table, ClusterDistanceTable):
                # Exact Python-int arithmetic: a squared key difference
                # times a 16-bit mantissa can pass 2^63.
                distances[table.cluster_index] = [table.distance(row) for row in codes]
            elif isinstance(table, TreeLevelTable):
                self._advance(table, codes, node, leaf)
            else:
                raise BackendError(f"unknown table type {type(table)!r}")

        decision = self.pipeline.decision
        if decision.kind == "argmax_score":
            if scores is None:
                scores = np.zeros((n, decision.n_classes), dtype=np.int64)
            if decision.bias_codes is not None:
                scores = scores + decision.bias_codes
            return np.argmax(scores, axis=1).astype(int)
        if decision.kind == "argmin_distance":
            if not distances:
                return np.zeros(n, dtype=int)
            clusters = sorted(distances)
            return np.array(
                [min(clusters, key=lambda k: (distances[k][r], k)) for r in range(n)],
                dtype=int,
            )
        # leaf
        return np.where(leaf >= 0, leaf, 0).astype(int)

    def predict(self, X) -> np.ndarray:
        """Class ids (mapped through ``class_labels`` when present)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.pipeline.n_features:
            raise BackendError(
                f"pipeline expects {self.pipeline.n_features} features, got {X.shape[1]}"
            )
        codes = np.round(X * 2**KEY_FRACTION_BITS).astype(np.int64)
        raw = self._run(codes)
        labels = self.pipeline.class_labels
        if labels is not None and self.pipeline.decision.kind != "leaf":
            return np.asarray(labels)[raw]
        return raw
