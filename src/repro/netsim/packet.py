"""Packet model and flow keys.

A :class:`Packet` carries the header fields the data-plane pipelines parse
(the paper's feature extraction stage reads Ethernet/IPv4/L4 headers).
Addresses and ports are plain integers — enough to exercise match-action
semantics without a full protocol stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatasetError

PROTO_TCP = 6
PROTO_UDP = 17

#: Minimum and maximum Ethernet frame sizes (bytes).
MIN_FRAME = 64
MAX_FRAME = 1518


@dataclass(frozen=True)
class Packet:
    """A single packet observation.

    Attributes
    ----------
    timestamp:
        arrival time in seconds (monotonic within a trace).
    size:
        frame length in bytes, clamped to Ethernet limits by the builder.
    src_ip / dst_ip:
        IPv4 addresses as 32-bit integers.
    src_port / dst_port:
        L4 ports.
    protocol:
        IP protocol number (6 = TCP, 17 = UDP).
    ttl:
        IPv4 time-to-live.
    tcp_flags:
        TCP flag bitmap (0 for UDP).
    """

    timestamp: float
    size: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP
    ttl: int = 64
    tcp_flags: int = 0

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise DatasetError(f"negative timestamp {self.timestamp}")
        if not MIN_FRAME <= self.size <= MAX_FRAME:
            raise DatasetError(
                f"packet size {self.size} outside [{MIN_FRAME}, {MAX_FRAME}]"
            )
        for field_name in ("src_ip", "dst_ip"):
            value = getattr(self, field_name)
            if not 0 <= value < 2**32:
                raise DatasetError(f"{field_name}={value} is not a 32-bit address")
        for field_name in ("src_port", "dst_port"):
            value = getattr(self, field_name)
            if not 0 <= value < 2**16:
                raise DatasetError(f"{field_name}={value} is not a 16-bit port")
        if not 0 <= self.protocol < 256:
            raise DatasetError(f"protocol={self.protocol} is not an 8-bit value")
        if not 0 <= self.ttl < 256:
            raise DatasetError(f"ttl={self.ttl} is not an 8-bit value")


def clamp_size(size: int) -> int:
    """Clamp a sampled size into the valid Ethernet frame range."""
    return max(MIN_FRAME, min(MAX_FRAME, int(size)))


def five_tuple(packet: Packet) -> tuple:
    """The classic 5-tuple flow key."""
    return (
        packet.src_ip,
        packet.dst_ip,
        packet.src_port,
        packet.dst_port,
        packet.protocol,
    )


def conversation_key(packet: Packet) -> tuple:
    """Direction-insensitive host-pair key (ports ignored).

    FlowLens tracks botnet conversations at this granularity — "tracking
    source and destination IP, while ignoring ports" (§5.1.1).
    """
    src, dst = packet.src_ip, packet.dst_ip
    return (src, dst) if src <= dst else (dst, src)
