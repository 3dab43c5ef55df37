"""Online per-packet inference over packet streams.

Two feature sources mirror the paper's applications:

* :class:`PacketFeatureExtractor` — stateless per-packet header features
  (anomaly detection, traffic classification),
* :class:`FlowmarkerTracker` — stateful per-conversation partial
  flowmarkers maintained exactly like switch register arrays (botnet
  detection, §5.1.1): every packet updates its conversation's histogram
  and inference runs on the *current* partial state.

:class:`StreamProcessor` drives a compiled pipeline over a stream and
accumulates online statistics, batching per-packet inference the way a
hardware pipeline overlaps packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import HomunculusError
from repro.netsim.features import packet_feature_matrix
from repro.netsim.flowmarker import PAPER_SPEC, FlowMarkerSpec
from repro.netsim.packet import Packet, conversation_key


class PacketFeatureExtractor:
    """Stateless per-packet feature extraction (AD/TC pipelines)."""

    def extract_many(self, packets: Sequence[Packet]) -> np.ndarray:
        """One :func:`packet_features` row per packet, as a matrix."""
        return packet_feature_matrix(packets)

    def extract(self, packet: Packet) -> np.ndarray:
        return self.extract_many((packet,))[0]

    def reset(self) -> None:
        """Stateless: nothing to clear."""


def extract_rows(extractor, packets: Sequence[Packet]) -> np.ndarray:
    """Feature rows of ``packets`` (non-empty), one per packet, in order.

    The extractor contract: ``extract(packet) -> row`` is required and
    ``extract_many(packets) -> (n, width) matrix`` is optional.  An
    extractor that has only ``extract`` gets its rows stacked.
    """
    extract_many = getattr(extractor, "extract_many", None)
    if extract_many is not None:
        return extract_many(packets)
    return np.stack([extractor.extract(packet) for packet in packets])


class FlowmarkerTracker:
    """Per-conversation partial flowmarkers in switch-register style.

    State is a bounded table keyed by the FlowLens conversation key
    (host pair); each packet increments its conversation's packet-length
    bin and — from the second packet on — the inter-arrival bin.  When
    the table is full, new conversations evict the oldest entry (the
    register-reuse behaviour of a fixed-size switch table).
    """

    def __init__(
        self,
        spec: FlowMarkerSpec = PAPER_SPEC,
        max_conversations: int = 4096,
        key_fn: Callable[[Packet], tuple] = conversation_key,
    ) -> None:
        if max_conversations < 1:
            raise HomunculusError("tracker needs at least one table slot")
        self.spec = spec
        self.max_conversations = int(max_conversations)
        self.key_fn = key_fn
        self._markers: dict = {}
        self._last_seen: dict = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._markers)

    def _evict_oldest(self) -> None:
        # ``_last_seen`` is kept least-recently-touched-first (touches
        # re-insert, below), so the victim is simply the first key — O(1)
        # instead of a full min() scan per eviction.  For time-ordered
        # streams (interleaved flows, say) this is exactly the
        # oldest-timestamp victim the scan used to pick.
        oldest = next(iter(self._last_seen))
        del self._markers[oldest]
        del self._last_seen[oldest]
        self.evictions += 1

    def extract_many(self, packets: Sequence[Packet]) -> np.ndarray:
        """Update the registers packet by packet; return every marker.

        Row ``i`` is packet ``i``'s conversation marker right after
        packet ``i`` updated it — what the switch's register array
        holds when that packet triggers inference.  Each packet adds
        one to its packet-length bin and, from the conversation's
        second packet on, one to its inter-arrival bin (both clamped
        into their last bin).  A conversation that goes back in time
        raises :class:`HomunculusError`.
        """
        spec = self.spec
        pl_width, pl_last = spec.pl_bin_size, spec.pl_bins - 1
        ipt_width, ipt_last = spec.ipt_bin_size, spec.ipt_bins - 1
        ipt_base, width = spec.pl_bins, spec.total_bins
        markers, last_seen = self._markers, self._last_seen
        key_fn, capacity = self.key_fn, self.max_conversations
        out = np.empty((len(packets), width))
        for index, packet in enumerate(packets):
            key = key_fn(packet)
            marker = markers.get(key)
            if marker is None:
                if len(markers) >= capacity:
                    self._evict_oldest()
                marker = markers[key] = np.zeros(width)
                prev_ts = None
            else:
                prev_ts = last_seen[key]
            marker[min(int(packet.size) // pl_width, pl_last)] += 1.0
            if prev_ts is not None:
                gap = packet.timestamp - prev_ts
                if gap < 0:
                    raise HomunculusError(
                        f"non-monotonic timestamps within a conversation ({gap})"
                    )
                marker[ipt_base + min(int(gap / ipt_width), ipt_last)] += 1.0
                del last_seen[key]  # re-insert at the tail: LRU order
            last_seen[key] = packet.timestamp
            out[index] = marker
        return out

    def extract(self, packet: Packet) -> np.ndarray:
        """Update this packet's conversation state; return the marker."""
        return self.extract_many((packet,))[0]

    def reset(self) -> None:
        self._markers.clear()
        self._last_seen.clear()
        self.evictions = 0


@dataclass
class StreamStats:
    """Online statistics of a deployed pipeline."""

    packets: int = 0
    class_counts: dict = field(default_factory=dict)
    correct: int = 0
    labeled: int = 0
    #: confusion[(true, predicted)] -> count, for labeled packets
    confusion: dict = field(default_factory=dict)

    def record(self, predicted: int, label=None) -> None:
        self.packets += 1
        self.class_counts[predicted] = self.class_counts.get(predicted, 0) + 1
        if label is not None:
            self.labeled += 1
            if int(label) == int(predicted):
                self.correct += 1
            key = (int(label), int(predicted))
            self.confusion[key] = self.confusion.get(key, 0) + 1

    def record_batch(self, predictions, labels: "Sequence | None" = None) -> None:
        """Record a whole batch at once (numpy-vectorized counters).

        ``labels`` may be ``None`` or a parallel sequence whose entries
        are ``None`` for unlabeled packets.  The resulting counters are
        identical to calling :meth:`record` per packet; new keys enter
        ``class_counts`` and ``confusion`` in sorted order per batch.
        The async serving engine uses this to keep per-packet
        accounting cost off its hot path.
        """
        predictions = np.asarray(predictions)
        self.packets += int(predictions.shape[0])
        values, counts = np.unique(predictions, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            value = int(value)
            self.class_counts[value] = self.class_counts.get(value, 0) + count
        if labels is None:
            return
        mask = np.array([label is not None for label in labels], dtype=bool)
        if not mask.any():
            return
        true = np.array([int(label) for label in labels if label is not None])
        pred = predictions[mask].astype(int)
        self.labeled += int(mask.sum())
        self.correct += int((true == pred).sum())
        # Count (true, predicted) pairs through one integer code per pair;
        # codes sort in the pairs' lexicographic order.
        true_low, pred_low = int(true.min()), int(pred.min())
        span = int(pred.max()) - pred_low + 1
        codes, counts = np.unique((true - true_low) * span + (pred - pred_low),
                                  return_counts=True)
        for code, count in zip(codes.tolist(), counts.tolist()):
            t, p = divmod(code, span)
            key = (t + true_low, p + pred_low)
            self.confusion[key] = self.confusion.get(key, 0) + count

    @property
    def accuracy(self) -> "float | None":
        if self.labeled == 0:
            return None
        return self.correct / self.labeled

    def positive_rate(self, positive: int = 1) -> float:
        if self.packets == 0:
            return 0.0
        return self.class_counts.get(positive, 0) / self.packets


class StreamProcessor:
    """Drive a compiled pipeline over a packet stream.

    Parameters
    ----------
    pipeline:
        anything with ``predict(X) -> labels`` (a
        :class:`~repro.backends.base.CompiledPipeline` or raw simulator).
    extractor:
        a :class:`PacketFeatureExtractor` or :class:`FlowmarkerTracker`.
    batch_size:
        packets buffered per inference call; hardware overlaps packets in
        the pipeline, software batches for the same effect.
    """

    def __init__(self, pipeline, extractor, batch_size: int = 256) -> None:
        if not hasattr(pipeline, "predict"):
            raise HomunculusError("pipeline must expose predict()")
        if batch_size < 1:
            raise HomunculusError("batch_size must be >= 1")
        self.pipeline = pipeline
        self.extractor = extractor
        self.batch_size = int(batch_size)
        self.stats = StreamStats()

    def process(
        self,
        packets: Iterable[Packet],
        labels: "Iterable | None" = None,
    ) -> list:
        """Run every packet through extraction + inference.

        ``labels`` (optional, parallel to ``packets``) enables accuracy
        tracking.  Returns the per-packet predictions in order.
        """
        label_list = list(labels) if labels is not None else None
        stream = iter(packets)
        out: list = []
        start = 0
        while True:
            batch = list(islice(stream, self.batch_size))
            if not batch:
                return out
            batch_labels = None
            if label_list is not None:
                batch_labels = label_list[start:start + len(batch)]
            predictions = self.pipeline.predict(extract_rows(self.extractor, batch))
            self.stats.record_batch(predictions, batch_labels)
            out.extend(predictions)
            start += len(batch)
