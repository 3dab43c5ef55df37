"""Classification and clustering metrics.

The paper optimizes F1 score for the supervised applications (anomaly
detection, traffic classification, botnet detection) and V-measure for the
KMeans-on-MATs microbenchmark (Figure 7); both are implemented here from
their definitions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError


def _validate_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape[0] != y_pred.shape[0]:
        raise DatasetError(
            f"y_true and y_pred disagree on length: {y_true.shape[0]} vs {y_pred.shape[0]}"
        )
    if y_true.shape[0] == 0:
        raise DatasetError("metrics are undefined on empty label arrays")
    return y_true, y_pred


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly matching predictions."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def _binary_counts(y_true, y_pred, positive: int) -> tuple[int, int, int]:
    tp = int(np.sum((y_pred == positive) & (y_true == positive)))
    fp = int(np.sum((y_pred == positive) & (y_true != positive)))
    fn = int(np.sum((y_pred != positive) & (y_true == positive)))
    return tp, fp, fn


def precision_score(y_true, y_pred, positive: int = 1) -> float:
    """TP / (TP + FP); zero when nothing was predicted positive."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    tp, fp, _ = _binary_counts(y_true, y_pred, positive)
    return tp / (tp + fp) if (tp + fp) else 0.0


def recall_score(y_true, y_pred, positive: int = 1) -> float:
    """TP / (TP + FN); zero when no positives exist."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    tp, _, fn = _binary_counts(y_true, y_pred, positive)
    return tp / (tp + fn) if (tp + fn) else 0.0


def f1_score(y_true, y_pred, average: str = "binary", positive: int = 1) -> float:
    """F1 score.

    ``average='binary'`` computes the score of the ``positive`` class (the
    paper's AD/BD setting); ``average='macro'`` averages per-class F1 (the
    multi-class traffic-classification setting).
    """
    y_true, y_pred = _validate_pair(y_true, y_pred)
    if average == "binary":
        p = precision_score(y_true, y_pred, positive)
        r = recall_score(y_true, y_pred, positive)
        return 2 * p * r / (p + r) if (p + r) else 0.0
    if average == "macro":
        scores = [
            f1_score(y_true, y_pred, average="binary", positive=int(c))
            for c in np.unique(y_true)
        ]
        return float(np.mean(scores)) if scores else 0.0
    raise DatasetError(f"unknown average mode {average!r}; use 'binary' or 'macro'")


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


def _contingency(labels_true: np.ndarray, labels_pred: np.ndarray) -> np.ndarray:
    classes, class_idx = np.unique(labels_true, return_inverse=True)
    clusters, cluster_idx = np.unique(labels_pred, return_inverse=True)
    table = np.zeros((classes.size, clusters.size), dtype=int)
    for ci, ki in zip(class_idx, cluster_idx):
        table[ci, ki] += 1
    return table


def homogeneity_completeness_v(y_true, y_pred) -> tuple[float, float, float]:
    """Return ``(homogeneity, completeness, v_measure)`` for a clustering.

    Definitions follow Rosenberg & Hirschberg (2007): homogeneity = 1 -
    H(C|K)/H(C), completeness = 1 - H(K|C)/H(K), V = their harmonic mean.
    """
    y_true, y_pred = _validate_pair(y_true, y_pred)
    table = _contingency(y_true, y_pred)
    n = table.sum()
    h_c = _entropy(table.sum(axis=1))
    h_k = _entropy(table.sum(axis=0))
    # Conditional entropies from the joint table.
    h_c_given_k = 0.0
    h_k_given_c = 0.0
    for k in range(table.shape[1]):
        column = table[:, k]
        weight = column.sum() / n
        h_c_given_k += weight * _entropy(column)
    for c in range(table.shape[0]):
        row = table[c, :]
        weight = row.sum() / n
        h_k_given_c += weight * _entropy(row)
    homogeneity = 1.0 if h_c == 0.0 else 1.0 - h_c_given_k / h_c
    completeness = 1.0 if h_k == 0.0 else 1.0 - h_k_given_c / h_k
    if homogeneity + completeness == 0.0:
        return 0.0, 0.0, 0.0
    v = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return float(homogeneity), float(completeness), float(v)


def v_measure_score(y_true, y_pred) -> float:
    """V-measure: harmonic mean of clustering homogeneity and completeness."""
    return homogeneity_completeness_v(y_true, y_pred)[2]
