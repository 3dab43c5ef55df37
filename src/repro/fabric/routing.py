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
* :func:`ingress_tier` classifies a packet by its endpoints' attachment,
* :func:`topology_dispatch` packages that as a router dispatch function,
* :func:`tier_route_weights` derives per-tier router weights from a
  traffic matrix's boundary loads, so the serving split mirrors where
  the offered load actually lands.
"""

from __future__ import annotations

from repro.errors import FabricError
from repro.fabric.topology import Topology
from repro.fabric.traffic import TrafficMatrix

__all__ = [
    "server_for_ip",
    "leaf_for_server",
    "ingress_tier",
    "topology_dispatch",
    "tier_route_weights",
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


def topology_dispatch(topology: Topology):
    """A :class:`~repro.serving.router.PipelineRouter` dispatch callable.

    Routes must be named after switch tiers (``"leaf"``, ``"spine"``);
    each packet is steered to its :func:`ingress_tier`.
    """
    def dispatch(packet) -> str:
        return ingress_tier(topology, packet)

    return dispatch


def tier_route_weights(traffic: TrafficMatrix, topology: Topology) -> dict:
    """Per-tier router weights proportional to boundary demand.

    Each switch tier is weighted by the offered load on the boundary
    directly below it (the traffic its devices must classify), scaled
    so the lightest loaded tier gets weight 1 — the integer each
    route's :attr:`~repro.serving.router.Route.weight` takes.
    Tiers with no offered load get weight 1.
    """
    rollup = traffic.oversubscription(topology)
    names = [t.tier for t in topology.tiers]
    loads = {}
    for tier in topology.switch_tiers():
        below = names[names.index(tier.tier) - 1]
        boundary = f"{below}-{tier.tier}"
        loads[tier.tier] = rollup[boundary]["demand_gbps"]
    positive = [v for v in loads.values() if v > 0]
    if not positive:
        return {tier: 1 for tier in loads}
    floor = min(positive)
    return {
        tier: max(1, round(load / floor)) if load > 0 else 1
        for tier, load in loads.items()
    }
