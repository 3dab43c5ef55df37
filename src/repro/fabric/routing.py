"""Topology-aware routing: steer packets to the tier that classifies them.

In a fabric, where a packet is inspected depends on where it travels:
traffic between two servers under the same leaf never leaves that leaf,
while cross-leaf traffic transits the spine.  This module turns a
:class:`~repro.fabric.topology.Topology` into the ``dispatch`` callable
:class:`~repro.serving.router.PipelineRouter` accepts, so a router with
one route per switch tier sends each packet to exactly the tier whose
device would see it first:

* :func:`server_for_ip` / :func:`leaf_for_server` mirror the topology's
  deterministic expansion (server ``i`` uplinks to leaf ``i % n_leaf``),
* :func:`ingress_tier` classifies a packet by its endpoints' attachment;
  ``dispatch=lambda p: ingress_tier(topology, p)`` is the router's
  topology-aware mode.
"""

from __future__ import annotations

from repro.errors import FabricError
from repro.fabric.topology import Topology

__all__ = [
    "server_for_ip",
    "leaf_for_server",
    "ingress_tier",
]


def server_for_ip(ip: int, n_servers: int) -> int:
    """Map a 32-bit address to the server index that owns it.

    A stable modulo mapping — the fabric analogue of a rack allocator
    handing out addresses round-robin — so routing decisions depend on
    packet contents only, never on arrival order.
    """
    if n_servers < 1:
        raise FabricError(f"n_servers must be >= 1, got {n_servers}")
    return int(ip) % n_servers


def leaf_for_server(server_index: int, n_leaf: int) -> int:
    """The leaf a server uplinks to: the topology's striped attachment."""
    if n_leaf < 1:
        raise FabricError(f"n_leaf must be >= 1, got {n_leaf}")
    return int(server_index) % n_leaf


def ingress_tier(topology: Topology, packet) -> str:
    """The switch tier whose devices classify this packet.

    Both endpoints resolve to servers, servers to leaves.  Same-leaf
    traffic is classified at the leaf; cross-leaf traffic transits —
    and is classified at — the tier above the leaf (spine when present,
    otherwise the leaf itself, the single-tier degenerate case).
    """
    switch = topology.switch_tiers()
    servers = topology.tier("server")
    leaf = switch[0]
    src = leaf_for_server(server_for_ip(packet.src_ip, servers.count),
                          leaf.count)
    dst = leaf_for_server(server_for_ip(packet.dst_ip, servers.count),
                          leaf.count)
    if src == dst or len(switch) == 1:
        return leaf.tier
    return switch[1].tier
