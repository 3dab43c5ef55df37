"""Traffic capture: a bounded ring of recent labeled packets.

The recompile half of the adaptation loop needs training data that looks
like *today's* traffic, not the snapshot the serving pipeline was
compiled against.  :class:`TrafficCapture` taps the engine's record
stage (`AsyncStreamEngine(capture=...)`): every labeled row that flows
through inference is retained — features, ground-truth label, the
pipeline's prediction, and the arrival timestamp — in fixed-capacity
:class:`~repro.serving.stats.RingSeries` columns, so memory is bounded
no matter how long the engine serves.

The ring is both the drift detectors' window source
(:meth:`window`, :meth:`accuracy`) and the retrain dataset source:
:func:`captured_dataset` merges one or more captures chronologically and
splits train/test by a deterministic stride, and :meth:`snapshot` spills
that to an ``.npz`` behind a :class:`~repro.distrib.runspec.DatasetRef`
— exactly the wire format ``run_sharded`` workers already consume.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.distrib.runspec import DatasetRef
from repro.errors import AdaptationError
from repro.serving.stats import RingSeries

__all__ = ["TrafficCapture", "captured_dataset"]


class TrafficCapture:
    """Ring-buffered (features, label, prediction, t) capture.

    Example::

        capture = TrafficCapture(capacity=4096)
        engine = AsyncStreamEngine(pipeline, extractor, capture=capture)
        ...
        capture.accuracy(last=256)          # rolling served accuracy
        window = capture.window(last=256)   # detector input
        ref = capture.snapshot("/tmp/captured.npz")   # retrain dataset

    Unlabeled rows are counted (``skipped_unlabeled``) but not retained:
    a recompile dataset needs ground truth, and the detectors run on the
    same labeled stream so their windows stay aligned with it.
    """

    def __init__(self, capacity: int = 4096, feature_names=None) -> None:
        if capacity < 2:
            raise AdaptationError(
                f"capture capacity must be >= 2, got {capacity}"
            )
        self.capacity = int(capacity)
        self.feature_names = (tuple(str(n) for n in feature_names)
                              if feature_names is not None else None)
        self._features: "list[RingSeries] | None" = None
        self._labels = RingSeries(self.capacity)
        self._predictions = RingSeries(self.capacity)
        self.seen = 0
        self.labeled = 0
        self.skipped_unlabeled = 0

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def n_features(self) -> "int | None":
        return len(self._features) if self._features is not None else None

    def observe_batch(self, rows, labels, predictions, times=None) -> None:
        """Retain one recorded micro-batch (labeled rows only).

        ``rows``/``labels``/``predictions`` are parallel per-row
        sequences (``rows`` may be one ``(n, width)`` matrix, as the
        engine passes it); ``times`` is a per-row arrival-stamp sequence
        or one scalar for the whole batch.
        """
        labels = list(labels)
        n = len(labels)
        if n == 0:
            return
        self.seen += n
        keep = [i for i, label in enumerate(labels) if label is not None]
        self.skipped_unlabeled += n - len(keep)
        if not keep:
            return
        self.labeled += len(keep)
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            matrix = rows[keep].astype(float, copy=False)
        else:
            matrix = np.stack(
                [np.asarray(rows[i], dtype=float).ravel() for i in keep]
            )
        if self._features is None:
            self._features = [RingSeries(self.capacity)
                              for _ in range(matrix.shape[1])]
        elif matrix.shape[1] != len(self._features):
            raise AdaptationError(
                f"capture saw {matrix.shape[1]}-wide rows after "
                f"{len(self._features)}-wide ones"
            )
        if times is None:
            stamps = np.zeros(len(keep))
        else:
            stamps = np.asarray(times, dtype=float)
            stamps = (np.full(len(keep), float(stamps)) if stamps.ndim == 0
                      else stamps.ravel()[keep])
        predictions = np.asarray(predictions, dtype=float).ravel()[keep]
        for j, ring in enumerate(self._features):
            ring.observe_batch(matrix[:, j], times=stamps)
        self._labels.observe_batch(
            [float(labels[i]) for i in keep], times=stamps
        )
        self._predictions.observe_batch(predictions, times=stamps)

    def window(self, last: "int | None" = None,
               since: "float | None" = None) -> dict:
        """Chronological view of the retained rows.

        Returns ``{"times", "rows", "labels", "predictions"}`` (numpy
        arrays; ``rows`` is ``(n, n_features)``), optionally limited to
        the newest ``last`` rows and/or rows with ``t > since``.  The
        column rings are written in lockstep, so one mask lines them all
        up.
        """
        times, labels = self._labels.samples()
        _, predictions = self._predictions.samples()
        if self._features is not None and len(times):
            rows = np.stack(
                [ring.samples()[1] for ring in self._features], axis=1
            )
        else:
            rows = np.empty((len(times), self.n_features or 0))
        if since is not None:
            mask = times > float(since)
            times, labels = times[mask], labels[mask]
            predictions, rows = predictions[mask], rows[mask]
        if last is not None and len(times) > int(last):
            times, labels = times[-int(last):], labels[-int(last):]
            predictions, rows = predictions[-int(last):], rows[-int(last):]
        return {
            "times": times,
            "rows": rows,
            "labels": labels.astype(int),
            "predictions": predictions.astype(int),
        }

    def accuracy(self, last: "int | None" = None,
                 since: "float | None" = None) -> "float | None":
        """Served accuracy over a window of retained rows (None if empty)."""
        w = self.window(last=last, since=since)
        if w["labels"].size == 0:
            return None
        return float(np.mean(w["labels"] == w["predictions"]))

    def counters(self) -> dict:
        """Monotonic capture counters (JSON-friendly)."""
        return {
            "seen": self.seen,
            "labeled": self.labeled,
            "skipped_unlabeled": self.skipped_unlabeled,
            "retained": len(self),
            "capacity": self.capacity,
        }

    def to_dataset(self, name: str = "captured-traffic",
                   test_stride: int = 4, min_rows: int = 32) -> Dataset:
        """Materialize the retained rows as a train/test ``Dataset``."""
        return captured_dataset([self], name=name, test_stride=test_stride,
                                min_rows=min_rows)

    def snapshot(self, path: str, name: str = "captured-traffic",
                 test_stride: int = 4, min_rows: int = 32) -> DatasetRef:
        """Spill :meth:`to_dataset` to ``path`` as a ``DatasetRef`` npz."""
        return DatasetRef.snapshot(
            self.to_dataset(name=name, test_stride=test_stride,
                            min_rows=min_rows),
            path,
        )


def captured_dataset(captures, name: str = "captured-traffic",
                     test_stride: int = 4, min_rows: int = 32) -> Dataset:
    """Merge capture windows (chronologically) into one retrain dataset.

    Rows from every capture are pooled and sorted by arrival time, then
    split train/test by a deterministic stride (every ``test_stride``-th
    row is held out), so the same ring contents always produce the same
    dataset — the bit-identity the distributed retrain relies on.
    Raises :class:`AdaptationError` when the pool is too small or the
    training split is single-class (nothing learnable to recompile on).
    """
    captures = list(captures)
    if not captures:
        raise AdaptationError("captured_dataset needs at least one capture")
    if test_stride < 2:
        raise AdaptationError(
            f"test_stride must be >= 2, got {test_stride}"
        )
    windows = [c.window() for c in captures if len(c)]
    if not windows:
        raise AdaptationError("no labeled traffic captured yet")
    times = np.concatenate([w["times"] for w in windows])
    rows = np.concatenate([w["rows"] for w in windows])
    labels = np.concatenate([w["labels"] for w in windows])
    order = np.argsort(times, kind="stable")
    rows, labels = rows[order], labels[order]
    n = rows.shape[0]
    if n < min_rows:
        raise AdaptationError(
            f"captured {n} labeled rows, need >= {min_rows} to recompile"
        )
    test_mask = (np.arange(n) % test_stride) == (test_stride - 1)
    train_x, train_y = rows[~test_mask], labels[~test_mask]
    test_x, test_y = rows[test_mask], labels[test_mask]
    if np.unique(train_y).size < 2:
        raise AdaptationError(
            "captured training split is single-class; refusing to "
            "recompile on it"
        )
    names = captures[0].feature_names
    if names is None:
        names = tuple(f"f{i}" for i in range(rows.shape[1]))
    return Dataset(
        train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
        feature_names=names, name=name,
        metadata={
            "source": "traffic-capture",
            "captures": len(captures),
            "rows": int(n),
            "test_stride": int(test_stride),
        },
    )
