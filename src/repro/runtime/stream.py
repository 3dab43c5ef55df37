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
from typing import Callable, Iterable

import numpy as np

from repro.errors import HomunculusError
from repro.netsim.features import packet_features
from repro.netsim.flow import Flow
from repro.netsim.flowmarker import PAPER_SPEC, FlowMarkerSpec
from repro.netsim.packet import Packet, conversation_key
from repro.netsim.trace import interleave_flows


class PacketFeatureExtractor:
    """Stateless per-packet feature extraction (AD/TC pipelines)."""

    def extract(self, packet: Packet) -> np.ndarray:
        return packet_features(packet)

    def reset(self) -> None:
        """Stateless: nothing to clear."""


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
        # streams (what ``process_flows`` feeds) this is exactly the
        # oldest-timestamp victim the scan used to pick.
        oldest = next(iter(self._last_seen))
        del self._markers[oldest]
        del self._last_seen[oldest]
        self.evictions += 1

    def extract(self, packet: Packet) -> np.ndarray:
        """Update this packet's conversation state; return the marker."""
        key = self.key_fn(packet)
        state = self._markers.get(key)
        if state is None:
            if len(self._markers) >= self.max_conversations:
                self._evict_oldest()
            marker = np.zeros(self.spec.total_bins)
            self._markers[key] = marker
            prev_ts = None
        else:
            marker = state
            prev_ts = self._last_seen[key]
        marker[self.spec.pl_bin(packet.size)] += 1.0
        if prev_ts is not None:
            gap = packet.timestamp - prev_ts
            if gap < 0:
                raise HomunculusError(
                    f"non-monotonic timestamps within a conversation ({gap})"
                )
            marker[self.spec.pl_bins + self.spec.ipt_bin(gap)] += 1.0
            del self._last_seen[key]  # re-insert at the tail: LRU order
        self._last_seen[key] = packet.timestamp
        return marker.copy()

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

    def record_batch(self, predictions, labels: "list | None" = None) -> None:
        """Record a whole batch at once (numpy-vectorized counters).

        ``labels`` may be ``None`` or a parallel list whose entries are
        ``None`` for unlabeled packets.  The resulting counters are
        identical to calling :meth:`record` per packet — the async
        serving engine uses this to keep per-packet accounting cost off
        its hot path.
        """
        predictions = np.asarray(predictions)
        self.packets += int(predictions.shape[0])
        for value, count in zip(*np.unique(predictions, return_counts=True)):
            value = int(value)
            self.class_counts[value] = self.class_counts.get(value, 0) + int(count)
        if labels is None:
            return
        mask = np.array([label is not None for label in labels], dtype=bool)
        if not mask.any():
            return
        true = np.array([int(label) for label in labels if label is not None])
        pred = predictions[mask].astype(int)
        self.labeled += int(mask.sum())
        self.correct += int((true == pred).sum())
        pairs, counts = np.unique(np.stack([true, pred], axis=1), axis=0,
                                  return_counts=True)
        for (t, p), count in zip(pairs, counts):
            key = (int(t), int(p))
            self.confusion[key] = self.confusion.get(key, 0) + int(count)

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

    def _flush(self, rows: list, labels: list) -> list:
        if not rows:
            return []
        predictions = self.pipeline.predict(np.stack(rows))
        self.stats.record_batch(predictions, labels)
        return list(predictions)

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
        out: list = []
        rows: list = []
        pending_labels: list = []
        for index, packet in enumerate(packets):
            rows.append(self.extractor.extract(packet))
            pending_labels.append(
                label_list[index] if label_list is not None else None
            )
            if len(rows) >= self.batch_size:
                out.extend(self._flush(rows, pending_labels))
                rows, pending_labels = [], []
        out.extend(self._flush(rows, pending_labels))
        return out

    def process_flows(self, flows: "Iterable[Flow]", label_fn=None) -> list:
        """Process whole flows in timestamp-interleaved packet order.

        ``label_fn(flow) -> int`` labels every packet of a flow (e.g.
        :func:`repro.datasets.botnet.flow_label`).
        """
        return self.process(*interleave_flows(flows, label_fn))
