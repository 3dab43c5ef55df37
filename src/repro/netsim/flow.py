"""Flows: a :class:`Flow` is a time-ordered packet sequence with derived
statistics."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import DatasetError
from repro.netsim.packet import Packet


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
    def sizes(self) -> np.ndarray:
        return np.array([p.size for p in self.packets], dtype=float)

    @property
    def inter_arrival_times(self) -> np.ndarray:
        """Gaps between consecutive packets (length ``len(flow) - 1``)."""
        if len(self.packets) < 2:
            return np.array([], dtype=float)
        ts = np.array([p.timestamp for p in self.packets])
        return np.diff(ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow(n={len(self)}, dur={self.duration:.1f}s, label={self.label!r})"
