"""CART decision trees (classifier and regressor).

Two consumers: (a) decision trees are one of the classical algorithms the
Tofino backend lowers onto MATs (one table per level), and (b) the
regression tree is the building block of the random forest that serves as
the Bayesian-optimization surrogate (the paper configures HyperMapper with
a random-forest model).

One engine grows every tree of a fit together; a lone tree is a forest
of one (:meth:`_BaseTree._fit_many`).  It works in passes, each of
which splits a *batch* of nodes:

* **The batch.** With ``max_features=None`` it is every open node of
  every tree.  When ``max_features`` draws candidate features from the
  tree's RNG it is the next depth-first node (left first) of each tree,
  so every tree draws in the order a node-at-a-time grower would.
* **Presort once per fit.** Every tree's rows are argsorted per feature
  (stable) in one call; a split hands the order to the children by a
  stable boolean compression, so each keeps its rows in ``(value, row
  index)`` order, as a per-node stable argsort would.  The node's rows in
  original order ride along.
* **Row-wise over the batch.** The batch's nodes are laid out as
  ``(node, feature, position)`` rows, largest nodes first, in groups
  padded to their largest node by repeating each node's last row; a
  group carries at most ``_PAD_WASTE`` padding positions, so the arrays
  of a pass scale with its rows.  Prefix statistics and gains (the
  ``_split_gains`` hook) and the tie rule (:func:`_first_to_beat`) run
  row-wise over each group.
* **The tie rule.** Splits are scanned feature by feature, positions
  ascending; one replaces the best so far only if its gain is more than
  ``1e-12`` higher.
* **Order-sensitive sums stay per node.**  The regressor's leaf mean and
  impurity sums run over each node's rows in original order; class
  counts are exact integers and are taken for the whole batch at once
  (the ``_node_stats`` hook).

Trees, leaf values and RNG consumption are bit-identical to the
per-node-argsort CART this engine replaced, the oracle of
``tests/ml/test_tree_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.rng import as_generator

#: A split must beat the best gain so far by more than this to replace it.
_TIE_TOLERANCE = 1e-12

#: Padding positions a group of nodes may carry: merging nodes into one
#: group saves a pass's fixed cost, padding them costs per position.
_PAD_WASTE = 256


@dataclass(slots=True)
class _Node:
    """A tree node; leaves carry ``value``, splits carry feature/threshold."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | None = None  # class counts (clf) or mean (reg)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(slots=True)
class _Open:
    """A node of a tree being grown, with the rows that reached it."""

    tree: int  # index into the trees grown together
    node: _Node
    depth: int
    rows: np.ndarray  # its row ids in original order
    order: np.ndarray  # (d, m): its row ids sorted by each feature
    impurity: float = 0.0


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum ``(k, K, m)`` over classes to the floats ``np.sum`` gives a class row.

    One or two terms add to the same float in any order, so binary labels
    (the common case) take a single elementwise add.  More classes are
    summed along a class-contiguous copy, the layout of a class row.
    """
    if a.shape[1] <= 2:
        return a.sum(axis=1)
    return np.ascontiguousarray(a.transpose(0, 2, 1)).sum(axis=-1)


def _totals(cum: np.ndarray, n) -> np.ndarray:
    """Each row's prefix statistic at position ``n - 1``: its node's total.

    ``n`` is the row length or, for rows padded past their node's end,
    a ``(rows, 1)`` array of node sizes.
    """
    if np.isscalar(n):
        return cum[..., n - 1:n]
    return cum[np.arange(cum.shape[0]), ..., n[:, 0] - 1][..., None]


def _first_to_beat(gains: np.ndarray):
    """Index the sequential tie rule ends on, or -1 if nothing beats 0.

    The rule scans from ``best = 0`` and accepts a gain above ``best +
    1e-12``.  Most scans end on their first maximum: nothing after it is
    higher, and it is accepted for certain when it beats 0 and every gain
    before it by more than ``1e-12``.  Scans where it does not (near-ties,
    NaN, nothing above 0) go through :func:`_scan_ties`.

    A 1-D ``gains`` gives an int; a 2-D one is scanned row by row and
    gives an index per row.
    """
    rows = np.atleast_2d(gains)
    top = rows.argmax(axis=1)  # the first maximum, or the first NaN
    before = rows.max(axis=1, initial=0.0, where=np.arange(rows.shape[1]) < top[:, None])
    peak = rows[np.arange(rows.shape[0]), top]
    certain = peak > before + _TIE_TOLERANCE
    pick = np.where(certain, top, -1)
    # Nothing at or below 1e-12 is ever accepted.
    rest = np.flatnonzero(~certain & ~(peak <= _TIE_TOLERANCE))
    if rest.size:
        pick[rest] = _scan_ties(rows[rest])
    return int(pick[0]) if gains.ndim == 1 else pick


def _scan_ties(rows: np.ndarray) -> np.ndarray:
    """The tie rule on each row of ``rows``, against running maxima.

    Every scanned gain is at most ``best + 1e-12``.  Against the running
    maximum of earlier gains (seeded with 0), a gain above ``runmax +
    1e-12`` is certainly accepted and one at or below ``runmax`` certainly
    rejected; only near-ties after the last certain acceptance need a
    sequential pass.
    """
    runmax = np.empty_like(rows)
    runmax[:, 0] = 0.0
    runmax[:, 1:] = rows[:, :-1]
    np.fmax.accumulate(runmax, axis=1, out=runmax)
    # Only a new running maximum can be accepted: list them, row-major.
    flat_rows, flat_max = rows.ravel(), runmax.ravel()
    record = np.flatnonzero(flat_rows > flat_max)
    top = flat_rows[record]
    certain = record[top > flat_max[record] + _TIE_TOLERANCE]
    row, at = np.divmod(certain, rows.shape[1])
    last = np.ones(row.size, dtype=bool)  # each row's last certain acceptance
    last[:-1] = row[1:] != row[:-1]
    pick = np.full(rows.shape[0], -1)
    pick[row[last]] = at[last]
    best = np.zeros(rows.shape[0])
    best[row[last]] = flat_rows[certain[last]]
    row, at = np.divmod(record, rows.shape[1])
    after = at > pick[row]
    for r, i, gain in zip(row[after].tolist(), at[after].tolist(), top[after].tolist()):
        if gain > best[r] + _TIE_TOLERANCE:
            best[r], pick[r] = gain, i
    return pick


def _find_splits(tree, XT, y, order, sizes, parents, features):
    """``(feature, threshold)`` of every node of a batch; feature -1: no split.

    Node ``j`` owns the next ``sizes[j]`` columns of ``order``, its
    ``(d, m)`` presorted row ids.  ``features`` is each node's ``(B, k)``
    candidate features, or None for every feature in order.  A group of
    nodes is padded to its largest node by repeating each node's last row.
    """
    count = sizes.size
    feature = np.full(count, -1)
    threshold = np.zeros(count)
    leaf = tree.min_samples_leaf
    # Positions i split after sorted row i; both sides need min_samples_leaf.
    lo = leaf - 1
    every = features is None
    k = order.shape[0] if every else features.shape[1]
    if k == 0:
        return feature, threshold
    starts = np.cumsum(sizes) - sizes
    # Largest nodes first; a node too small to split ends the search.
    by_size = np.argsort(-sizes, kind="stable")
    ordered = sizes[by_size].tolist()
    splittable = int(np.count_nonzero(sizes > 2 * lo + 1))
    stop = 0
    while stop < splittable:
        start, width = stop, ordered[stop]  # the group's largest node
        rows = 0
        while stop < splittable and (stop - start + 1) * width - rows - ordered[stop] <= _PAD_WASTE:
            rows += ordered[stop]
            stop += 1
        group = by_size[start:stop]
        hi = width - leaf
        m = sizes[group]
        f = np.arange(k)[None, :, None] if every else features[group][:, :, None]
        if group.size == 1:  # one node: its own columns, no padding
            j = group[0]
            ids = order[slice(None) if every else features[j], starts[j]:starts[j] + width][None]
            n, parent = width, parents[j]
        else:
            cols = np.arange(width)
            pos = starts[group][:, None] + np.minimum(cols, m[:, None] - 1)
            ids = order[f, pos[:, None, :]]
            n, parent = np.repeat(m, k)[:, None], np.repeat(parents[group], k)[:, None]
        xs = XT[f, ids]
        gains = tree._split_gains(y[ids].reshape(-1, width), lo, hi, parent, n)
        # ``b > a`` is ``b - a > 0`` for every IEEE pair, inf and nan included.
        usable = xs[:, :, lo + 1:hi + 1] > xs[:, :, lo:hi]
        if group.size > 1:
            usable &= cols[lo:hi] < (m - leaf)[:, None, None]
        gains = gains.reshape(group.size, -1)
        gains[~usable.reshape(group.size, -1)] = -np.inf
        pick = _first_to_beat(gains)
        hit = np.nonzero(pick >= 0)[0]
        c, at = np.divmod(pick[hit], hi - lo)
        at += lo
        feature[group[hit]] = c if every else f[hit, c, 0]
        threshold[group[hit]] = (xs[hit, c, at] + xs[hit, c, at + 1]) / 2.0
    return feature, threshold


def _grow(trees: list, X: np.ndarray, y: np.ndarray) -> None:
    """Grow ``trees`` together: tree ``t`` owns rows ``t*n .. t*n + n - 1``.

    ``y`` holds the targets as the engine sees them (``_encoded_targets``);
    every tree shares one class and one set of parameters.
    """
    tree = trees[0]
    total, d = X.shape
    n = total // len(trees)
    XT = np.ascontiguousarray(X.T)
    presorted = np.argsort(X.reshape(len(trees), n, d), axis=1, kind="stable")
    presorted += np.arange(0, total, n)[:, None, None]
    order = np.ascontiguousarray(presorted.transpose(2, 0, 1)).reshape(d, total)
    rows = np.arange(total)
    side = np.zeros(total, dtype=np.int8)  # 1 left, 2 right, 0 stays
    draws = tree.max_features is not None
    pending: list[list[_Open]] = [[] for _ in trees]  # per tree; next split on top

    # New nodes, the targets of their rows and their sizes.
    for t, grown in enumerate(trees):
        grown.root = _Node()
    new = [_Open(t, grown.root, 0, rows[t * n:t * n + n], order[:, t * n:t * n + n])
           for t, grown in enumerate(trees)]
    targets, sizes = y, np.full(len(trees), n)
    while True:
        if new:
            depths = np.array([item.depth for item in new])
            need = (sizes >= tree.min_samples_split) & (depths < tree.max_depth)
            values, impurities = tree._node_stats(targets, sizes, need)
            # Right children come last: reversed, each tree's left child ends on top.
            for item, value, needed, impurity in zip(
                    reversed(new), reversed(values), reversed(need.tolist()), reversed(impurities)):
                item.node.value = value
                if needed and impurity != 0.0:
                    item.impurity = impurity
                    pending[item.tree].append(item)
        if draws:
            batch = [stack.pop() for stack in pending if stack]
        else:
            batch = [item for stack in pending for item in stack]
            for stack in pending:
                stack.clear()
        if not batch:
            return
        sizes = np.array([item.rows.size for item in batch])
        batch_rows = np.concatenate([item.rows for item in batch])
        batch_order = np.concatenate([item.order for item in batch], axis=1)
        features = None
        if draws:
            features = np.stack([trees[item.tree]._candidate_features() for item in batch])
        feature, threshold = _find_splits(
            tree, XT, y, batch_order, sizes,
            np.array([item.impurity for item in batch]), features)
        split = np.nonzero(feature >= 0)[0]
        new = []
        if split.size == 0:
            continue

        # Partition every split node's rows, both orders, in one pass.
        node_of = np.repeat(np.arange(len(batch)), sizes)
        goes_left = XT[feature[node_of], batch_rows] <= threshold[node_of]
        row_side = np.where(feature[node_of] < 0, 0, 2 - goes_left).astype(np.int8)
        side[batch_rows] = row_side
        sorted_side = side[batch_order]
        left_rows, right_rows = batch_rows[row_side == 1], batch_rows[row_side == 2]
        left_order = batch_order[sorted_side == 1].reshape(d, -1)
        right_order = batch_order[sorted_side == 2].reshape(d, -1)
        n_left = np.bincount(node_of[row_side == 1], minlength=len(batch))[split]
        n_right = sizes[split] - n_left
        lefts, rights = [], []
        left_at = right_at = 0
        for j, nl, nr, f, thr in zip(split.tolist(), n_left.tolist(), n_right.tolist(),
                                      feature[split].tolist(), threshold[split].tolist()):
            t, node, depth = batch[j].tree, batch[j].node, batch[j].depth
            node.feature, node.threshold = f, thr
            node.left, node.right = _Node(), _Node()
            lefts.append(_Open(t, node.left, depth + 1, left_rows[left_at:left_at + nl],
                               left_order[:, left_at:left_at + nl]))
            rights.append(_Open(t, node.right, depth + 1, right_rows[right_at:right_at + nr],
                                right_order[:, right_at:right_at + nr]))
            left_at += nl
            right_at += nr
        new = lefts + rights
        targets = y[np.concatenate([left_rows, right_rows])]
        sizes = np.concatenate([n_left, n_right])


class _BaseTree:
    """A CART tree; subclasses define the criterion and leaves."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise TrainingError("min_samples_split >= 2 and min_samples_leaf >= 1 required")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self._rng = as_generator(seed)
        self.root: _Node | None = None
        self.n_features_: int = 0

    # Subclass hooks -----------------------------------------------------
    def _node_stats(self, ys: np.ndarray, sizes: np.ndarray, need: np.ndarray):
        """Leaf values and impurities of consecutive nodes.

        ``ys`` holds each node's targets in original row order, node after
        node, ``sizes[j]`` of them for node ``j``.  Returns a value array
        per node and an impurity per node; only impurities where ``need``
        is set are read.
        """
        raise NotImplementedError

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent, n=None) -> np.ndarray:
        """Gains of splitting each row of ``ys`` after sorted position ``lo <= i < hi``.

        ``ys`` is ``(k, w)``: a node's targets in each candidate feature's
        sorted order.  Returns the ``(k, hi - lo)`` gains.  Rows of a
        batch are padded past their node's end: ``parent`` and the node
        size ``n`` (default ``w``) then come as ``(k, 1)`` arrays, and
        gains past ``n - min_samples_leaf`` are meaningless.  Side sizes
        are floats: ints convert exactly, so every quotient and product is
        the one integer sizes would give.
        """
        raise NotImplementedError

    def _batch_key(self):
        """Trees grow in one batch only if their keys are equal."""
        return None

    # Construction -------------------------------------------------------
    def _candidate_features(self) -> np.ndarray:
        d = self.n_features_
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(d)))
        else:
            k = min(int(self.max_features), d)
        return self._rng.choice(d, size=k, replace=False)

    @staticmethod
    def _fit_many(trees: list, X, y, samples=None) -> None:
        """Fit ``trees`` together, tree ``t`` on rows ``samples[t]`` of ``X``/``y``.

        ``samples`` is a ``(len(trees), m)`` array of row indices (a
        bootstrap); ``None`` fits every tree on every row.  The trees
        share one class and one set of parameters.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise TrainingError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise TrainingError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise TrainingError("cannot fit a tree on an empty dataset")
        if samples is None:
            samples = np.broadcast_to(np.arange(X.shape[0]), (len(trees), X.shape[0]))
        targets = []
        groups: dict = {}
        for t, (tree, rows) in enumerate(zip(trees, samples)):
            tree.n_features_ = X.shape[1]
            targets.append(tree._encoded_targets(y[rows]))
            groups.setdefault(tree._batch_key(), []).append(t)
        for members in groups.values():
            _grow([trees[t] for t in members], X[samples[members].ravel()],
                  np.concatenate([targets[t] for t in members]))

    def fit(self, X, y):
        self._fit_many([self], X, y)
        return self

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        """Targets as the engine sees them; run once per fit."""
        return y

    # Inference ----------------------------------------------------------
    def _leaves(self, X: np.ndarray):
        """Yield ``(leaf, row indices)`` for every leaf ``X`` reaches.

        Batched traversal: the whole query set is partitioned down the
        tree instead of walked one sample at a time (the surrogate scores
        a 256-candidate pool per BO iteration).
        """
        if self.root is None:
            raise TrainingError("tree used before fit()")
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                yield node, idx
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))

    def _walk(self):
        """Yield ``(node, depth)`` for every node, depth first."""
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a stump)."""
        return max((depth for _, depth in self._walk()), default=0)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(node.is_leaf for node, _ in self._walk())

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(1 for _ in self._walk())


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity CART classifier over integer labels.

    Splits come from the shared batched engine: the first split, in
    feature then position order, whose gain beats the best so far by more
    than ``1e-12``.  A lone tree grows as a forest of one, a level of
    nodes per pass; trees are bit-identical to the per-node-argsort CART.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def _encoded_targets(self, y: np.ndarray) -> np.ndarray:
        self.classes_ = np.unique(y)
        return np.searchsorted(self.classes_, y)

    def _batch_key(self):
        # Class sums depend on how many classes they add up.
        return len(self.classes_)

    def _node_stats(self, ys: np.ndarray, sizes: np.ndarray, need: np.ndarray):
        """Class counts of every node from one bincount, Gini from the counts."""
        width = len(self.classes_)
        node_of = np.repeat(np.arange(sizes.size), sizes)
        counts = np.bincount(node_of * width + ys, minlength=sizes.size * width)
        counts = counts.reshape(sizes.size, width)
        p = counts / np.maximum(sizes, 1)[:, None]  # an empty node needs none
        return list(counts.astype(float)), (1.0 - (p * p).sum(axis=1)).tolist()

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent, n=None) -> np.ndarray:
        """Gini gains from prefix class counts, one cumsum for every row.

        Counts are laid out class-major, ``(k, K, w)``, so the cumsum runs
        along contiguous memory; :func:`_class_sum` then adds each
        position's squared class shares as the per-feature CART did.
        """
        if n is None:
            n = ys.shape[1]
        left_n = np.arange(lo + 1, hi + 1, dtype=float)
        right_n = np.maximum(n - left_n, 1.0)  # 1 only past a padded row's end
        labels = np.arange(len(self.classes_))[:, None]
        cum = (ys[:, None, :] == labels).cumsum(axis=2, dtype=np.int32)  # < 2**31 rows
        counts_left = cum[:, :, lo:hi]
        counts_right = _totals(cum, n) - counts_left
        # parent - (left_n / n * gini_left + right_n / n * gini_right),
        # in place: the same operations, fewer large temporaries.
        p_left = counts_left / left_n
        p_left *= p_left
        p_right = counts_right / right_n[..., None, :]
        p_right *= p_right
        gini_left, gini_right = _class_sum(p_left), _class_sum(p_right)
        np.subtract(1.0, gini_left, out=gini_left)
        np.subtract(1.0, gini_right, out=gini_right)
        gini_left *= left_n / n
        gini_right *= right_n / n
        gini_left += gini_right
        return np.subtract(parent, gini_left, out=gini_left)

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities: leaf class counts, normalized."""
        X = np.asarray(X, dtype=float)
        out = np.zeros((X.shape[0], len(self.classes_)))
        for leaf, idx in self._leaves(X):
            out[idx] = leaf.value / leaf.value.sum()
        return out

    def predict(self, X) -> np.ndarray:
        """Most probable class label for every row of ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """Variance-reduction CART regressor.

    Same batched engine and tie rule as :class:`DecisionTreeClassifier`;
    trees are bit-identical to the per-node-argsort CART.
    """

    def _node_stats(self, ys: np.ndarray, sizes: np.ndarray, need: np.ndarray):
        """Leaf mean and variance of every node, each over its own rows.

        Float sums depend on the order of their terms: each node sums its
        rows in original order, as a node-at-a-time grower does.  The mean
        of float64 rows is ``np.mean``'s own sum over count; other dtypes
        go through ``np.mean``, whose sum is taken in float64.
        """
        means, impurities = [], []
        float_rows = ys.dtype == np.float64
        stop = 0
        for n, needed in zip(sizes.tolist(), need.tolist()):
            y = ys[stop:stop + n]
            stop += n
            s = np.add.reduce(y)  # y.sum() without its wrapper
            means.append(s / n if float_rows and n else np.mean(y))
            if needed:
                # Single-pass variance (sum-of-squares form, clipped at 0).
                s, q = float(s), float(y @ y)
                impurities.append(max(q / n - (s / n) ** 2, 0.0))
            else:
                impurities.append(0.0)
        return list(np.array(means, dtype=float)[:, None]), impurities

    def _split_gains(self, ys: np.ndarray, lo: int, hi: int, parent, n=None) -> np.ndarray:
        """Variance-reduction gains from prefix sums and sums of squares."""
        if n is None:
            n = ys.shape[1]
        left_n = np.arange(lo + 1, hi + 1, dtype=float)
        right_n = np.maximum(n - left_n, 1.0)  # 1 only past a padded row's end
        cum_s = ys.cumsum(axis=1)
        cum_q = (ys * ys).cumsum(axis=1)
        s_left = cum_s[:, lo:hi]
        q_left = cum_q[:, lo:hi]
        s_right = _totals(cum_s, n) - s_left
        q_right = _totals(cum_q, n) - q_left
        var_left = np.maximum(q_left / left_n - (s_left / left_n) ** 2, 0.0)
        var_right = np.maximum(q_right / right_n - (s_right / right_n) ** 2, 0.0)
        return parent - (left_n * var_left + right_n * var_right) / n

    def predict(self, X) -> np.ndarray:
        """Leaf-mean regression value for every row of ``X``."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for leaf, idx in self._leaves(X):
            out[idx] = leaf.value[0]
        return out
