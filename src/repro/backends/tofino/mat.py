"""Typed match-action-table IR.

The IIsy mapping produces three table shapes, each of which corresponds to
one MAT in the paper's resource accounting:

* :class:`FeatureScoreTable` — range-match one feature, add per-class
  partial scores to metadata (the SVM per-feature table),
* :class:`ClusterDistanceTable` — accumulate one centroid's quantized
  distance (the KMeans per-cluster table),
* :class:`TreeLevelTable` — match (node, feature-range) and advance one
  tree level (the decision-tree per-level table),

closed by a :class:`DecisionTable` that folds metadata into a class id
(argmax of scores, argmin of distances, or the reached leaf).

All scores/distances are integers (fixed-point codes); match keys are raw
integer feature codes, exactly what a P4 parser would extract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BackendError

#: Fraction bits of score/distance fixed-point codes in table entries.
SCORE_FRACTION_BITS = 8

#: Fraction bits of parsed feature codes (fractional features survive).
KEY_FRACTION_BITS = 8


def encode_key(value: float) -> int:
    """Quantize a feature value into the integer match-key domain."""
    return int(round(float(value) * 2**KEY_FRACTION_BITS))


def encode_score(value: float) -> int:
    """Quantize a score/distance into the integer metadata domain."""
    return int(round(float(value) * 2**SCORE_FRACTION_BITS))


@dataclass(frozen=True)
class RangeEntry:
    """One range-match entry ``[lo, hi)`` with integer action data."""

    lo: int
    hi: int
    data: tuple

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise BackendError(f"empty range entry [{self.lo}, {self.hi})")

    def matches(self, key: int) -> bool:
        return self.lo <= key < self.hi


@dataclass
class FeatureScoreTable:
    """Range-match ``feature_index`` and add per-class partial scores."""

    name: str
    feature_index: int
    entries: list  # list[RangeEntry] with data = per-class scores

    def __post_init__(self) -> None:
        if not self.entries:
            raise BackendError(f"table {self.name} has no entries")
        widths = {len(e.data) for e in self.entries}
        if len(widths) != 1:
            raise BackendError(f"table {self.name} has ragged score tuples")

    @property
    def n_classes(self) -> int:
        return len(self.entries[0].data)

    @property
    def n_entries(self) -> int:
        return len(self.entries)


@dataclass
class ClusterDistanceTable:
    """Accumulate one centroid's quantized squared distance.

    The action computes ``sum_f w_f * (x_f - c_f)^2``.  Per-feature
    inverse-variance weights span many orders of magnitude, so each is
    stored as a normalized 16-bit mantissa plus an arithmetic shift
    (``w_f = mant_f * 2^-shift_f``), exactly like the Taurus scale stage.
    One MAT per cluster, as the paper counts for Figure 7.
    """

    name: str
    cluster_index: int
    centroid_codes: np.ndarray
    weight_mants: np.ndarray
    weight_shifts: np.ndarray

    def __post_init__(self) -> None:
        if self.centroid_codes.shape != self.weight_mants.shape or (
            self.centroid_codes.shape != self.weight_shifts.shape
        ):
            raise BackendError(f"table {self.name}: centroid/weight shape mismatch")
        if self.centroid_codes.ndim != 1 or self.centroid_codes.shape[0] < 1:
            raise BackendError(f"table {self.name}: bad centroid shape")

    @property
    def n_entries(self) -> int:
        return 1  # single default entry whose action does the arithmetic

    def distance(self, feature_codes: np.ndarray) -> int:
        diff = feature_codes.astype(np.int64) - self.centroid_codes
        # diff carries KEY fraction bits, so diff^2 carries 2x; one shift
        # drops back to KEY bits, the weight shift applies the mantissa's
        # exponent.  Result: squared distance in KEY-fraction fixed point.
        sq = (diff * diff) >> KEY_FRACTION_BITS
        total = 0
        for f in range(sq.shape[0]):
            shift = int(self.weight_shifts[f])
            term = int(sq[f]) * int(self.weight_mants[f])
            total += (term >> shift) if shift >= 0 else (term << -shift)
        return total


@dataclass(frozen=True)
class TreeEntry:
    """One tree-level entry: at ``node``, if feature in [lo, hi) then
    either advance to ``next_node`` or emit ``leaf_class``."""

    node: int
    feature_index: int
    lo: int
    hi: int
    next_node: int = -1
    leaf_class: int = -1

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise BackendError(f"empty tree range [{self.lo}, {self.hi})")
        if (self.next_node < 0) == (self.leaf_class < 0):
            raise BackendError("tree entry must set exactly one of next/leaf")


@dataclass
class TreeLevelTable:
    """Exact-match node id + range-match feature; one MAT per tree level."""

    name: str
    level: int
    entries: list  # list[TreeEntry]

    def __post_init__(self) -> None:
        if not self.entries:
            raise BackendError(f"table {self.name} has no entries")

    @property
    def n_entries(self) -> int:
        return len(self.entries)


@dataclass
class DecisionTable:
    """Fold metadata into the final class id.

    ``kind``: ``"argmax_score"`` (SVM), ``"argmin_distance"`` (KMeans),
    ``"leaf"`` (decision tree).  ``bias_codes`` are added to scores before
    the argmax (the SVM intercepts).
    """

    name: str
    kind: str
    n_classes: int
    bias_codes: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("argmax_score", "argmin_distance", "leaf"):
            raise BackendError(f"unknown decision kind {self.kind!r}")
        if self.n_classes < 1:
            raise BackendError("decision table needs >= 1 class")

    @property
    def n_entries(self) -> int:
        return self.n_classes


@dataclass
class MatPipeline:
    """An ordered MAT program plus its metadata declaration."""

    name: str
    n_features: int
    tables: list = field(default_factory=list)
    class_labels: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise BackendError("pipeline needs >= 1 feature")
        if not self.tables:
            raise BackendError("pipeline has no tables")
        if not isinstance(self.tables[-1], DecisionTable):
            raise BackendError("pipeline must end with a DecisionTable")

    @property
    def decision(self) -> DecisionTable:
        return self.tables[-1]

    @property
    def match_tables(self) -> list:
        return self.tables[:-1]

    @property
    def n_mats(self) -> int:
        """MAT count under the paper's accounting.

        SVM: one MAT per feature table plus the vote/decision table.
        KMeans: one MAT per cluster (the decision fold rides the last
        stage's ALU, as in IIsy).  Trees: one MAT per level plus the leaf
        decision.
        """
        match_mats = len(self.match_tables)
        if self.decision.kind == "argmin_distance":
            return match_mats
        return match_mats + 1

    @property
    def total_entries(self) -> int:
        return sum(t.n_entries for t in self.tables)
