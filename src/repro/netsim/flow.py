"""Flows and flow aggregation.

A :class:`Flow` is a time-ordered packet sequence with derived statistics;
:class:`FlowTable` groups a packet stream into flows under a configurable
key (5-tuple or FlowLens-style conversation key).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import DatasetError
from repro.netsim.packet import Packet, five_tuple


class Flow:
    """A time-ordered sequence of packets sharing a flow key."""

    def __init__(self, packets: "Iterable[Packet] | None" = None, label=None) -> None:
        self.packets: list[Packet] = []
        self.label = label
        for p in packets or []:
            self.add(p)

    def add(self, packet: Packet) -> None:
        """Append a packet; timestamps must be non-decreasing."""
        if self.packets and packet.timestamp < self.packets[-1].timestamp:
            raise DatasetError(
                "packets must be added in timestamp order "
                f"({packet.timestamp} < {self.packets[-1].timestamp})"
            )
        self.packets.append(packet)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)

    # -- statistics --------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds between first and last packet (0 for singleton flows)."""
        if len(self.packets) < 2:
            return 0.0
        return self.packets[-1].timestamp - self.packets[0].timestamp

    @property
    def total_bytes(self) -> int:
        return sum(p.size for p in self.packets)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([p.size for p in self.packets], dtype=float)

    @property
    def inter_arrival_times(self) -> np.ndarray:
        """Gaps between consecutive packets (length ``len(flow) - 1``)."""
        if len(self.packets) < 2:
            return np.array([], dtype=float)
        ts = np.array([p.timestamp for p in self.packets])
        return np.diff(ts)

    @property
    def mean_size(self) -> float:
        return float(self.sizes.mean()) if self.packets else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow(n={len(self)}, dur={self.duration:.1f}s, label={self.label!r})"


class FlowTable:
    """Group a packet stream into flows by a key function.

    The default key is the 5-tuple; pass
    :func:`repro.netsim.packet.conversation_key` for FlowLens-style
    host-pair conversations.
    """

    def __init__(self, key_fn: Callable[[Packet], tuple] = five_tuple) -> None:
        self.key_fn = key_fn
        self._flows: dict[tuple, Flow] = {}

    def observe(self, packet: Packet) -> Flow:
        """Route one packet to its flow (creating it on first sight)."""
        key = self.key_fn(packet)
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow()
            self._flows[key] = flow
        flow.add(packet)
        return flow

    @property
    def flows(self) -> list[Flow]:
        return list(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    def __getitem__(self, key: tuple) -> Flow:
        return self._flows[key]

    def __contains__(self, key: tuple) -> bool:
        return key in self._flows
