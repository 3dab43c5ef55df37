"""The per-packet extraction and ``np.unique`` record code that
``repro.runtime.stream`` replaced: the test oracle.

``FlowmarkerTracker`` is the tracker as it stood before
``extract_many``, kept verbatim below: every packet looks up its
conversation, bumps the register bins in place and returns a copy of
the marker.  ``record_batch`` is the batch recorder as it stood before
pair codes, counting ``(true, predicted)`` pairs with an axis-0
``np.unique``; it takes the :class:`StreamStats` to update as its first
argument.  ``test_stream_oracle.py`` requires the new code's rows,
counters and table state to equal these, field for field.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import HomunculusError
from repro.netsim.flowmarker import PAPER_SPEC, FlowMarkerSpec
from repro.netsim.packet import Packet, conversation_key


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
