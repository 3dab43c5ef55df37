"""Per-packet feature extraction.

The paper's AD and TC pipelines classify from packet-header features
(packet size, Ethernet and IPv4 headers — §5).  This module defines the
canonical 7-feature vector used throughout the reproduction; the order
matches what the generated P4/Spatial parsers would extract.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.netsim.packet import Packet

#: Canonical per-packet feature order (7 features, as in the paper's AD/TC).
PACKET_FEATURE_NAMES = (
    "size",
    "protocol",
    "src_port",
    "dst_port",
    "ttl",
    "tcp_flags",
    "ip_pair_hash",
)


def _ip_pair_hash(packet: Packet) -> int:
    """A cheap 16-bit hash of the address pair (a stand-in for learned
    embeddings of the address space; real data planes hash with CRC units)."""
    mixed = (packet.src_ip * 2654435761 ^ packet.dst_ip * 40503) & 0xFFFFFFFF
    return (mixed >> 16) ^ (mixed & 0xFFFF)


def packet_features(packet: Packet) -> np.ndarray:
    """Extract the 7-dim feature vector for one packet."""
    return np.array(
        [
            float(packet.size),
            float(packet.protocol),
            float(packet.src_port),
            float(packet.dst_port),
            float(packet.ttl),
            float(packet.tcp_flags),
            float(_ip_pair_hash(packet)),
        ]
    )


def packet_feature_matrix(packets: Sequence[Packet]) -> np.ndarray:
    """Feature matrix (n_packets x 7): :func:`packet_features` per row.

    The header fields are gathered once and the address-pair hash runs
    on the whole column in ``uint64``, where the 32-bit products are
    exact, so every row equals the per-packet vector.
    """
    fields = np.array(
        [(p.size, p.protocol, p.src_port, p.dst_port, p.ttl, p.tcp_flags,
          p.src_ip, p.dst_ip) for p in packets],
        dtype=np.uint64,
    ).reshape(-1, 8)
    mixed = (fields[:, 6] * np.uint64(2654435761)
             ^ fields[:, 7] * np.uint64(40503)) & np.uint64(0xFFFFFFFF)
    out = np.empty((fields.shape[0], len(PACKET_FEATURE_NAMES)))
    out[:, :6] = fields[:, :6]
    out[:, 6] = (mixed >> np.uint64(16)) ^ (mixed & np.uint64(0xFFFF))
    return out
