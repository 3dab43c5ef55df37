"""Topology-aware dispatch: attachment math and router integration."""

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric import (
    TierSpec,
    Topology,
    ingress_tier,
    leaf_for_server,
    server_for_ip,
)
from repro.netsim.packet import PROTO_TCP, Packet
from repro.runtime import PacketFeatureExtractor
from repro.serving import AsyncStreamEngine, PipelineRouter, Route


def make_packet(src, dst, ts=0.0, size=100):
    return Packet(timestamp=ts, size=size, src_ip=src, dst_ip=dst,
                  src_port=1000, dst_port=2000, protocol=PROTO_TCP)


class TestAttachment:
    def test_server_for_ip_is_a_stable_modulo(self):
        assert server_for_ip(0, 8) == 0
        assert server_for_ip(13, 8) == 5
        assert server_for_ip(13, 8) == server_for_ip(13, 8)
        with pytest.raises(FabricError, match="n_servers"):
            server_for_ip(1, 0)

    def test_leaf_for_server_stripes(self):
        # Mirrors the topology expansion: server i -> leaf i % n_leaf.
        assert [leaf_for_server(i, 2) for i in range(4)] == [0, 1, 0, 1]
        with pytest.raises(FabricError, match="n_leaf"):
            leaf_for_server(0, 0)


class TestIngressTier:
    def test_same_leaf_traffic_stays_at_the_leaf(self, pod):
        # Servers 0 and 2 both stripe onto leaf0 (8 servers, 2 leaves).
        assert ingress_tier(pod, make_packet(src=0, dst=2)) == "leaf"

    def test_cross_leaf_traffic_climbs_to_the_spine(self, pod):
        # Server 0 -> leaf0, server 1 -> leaf1.
        assert ingress_tier(pod, make_packet(src=0, dst=1)) == "spine"

    def test_single_switch_tier_classifies_everything_at_the_leaf(self):
        leaf_only = Topology([
            TierSpec("server", count=4, ports=1),
            TierSpec("leaf", count=2, device="tofino", ports=4),
        ])
        assert ingress_tier(leaf_only, make_packet(src=0, dst=1)) == "leaf"


class SizePipeline:
    def predict(self, X):
        return (np.asarray(X)[:, 0] > 500).astype(int)


class TestRouterDispatchMode:
    def build(self, pod):
        leaf = AsyncStreamEngine(SizePipeline(), PacketFeatureExtractor(),
                                 batch_size=8)
        spine = AsyncStreamEngine(SizePipeline(), PacketFeatureExtractor(),
                                  batch_size=8)
        router = PipelineRouter(
            [Route("leaf", leaf), Route("spine", spine)],
            dispatch=lambda packet: ingress_tier(pod, packet),
        )
        return leaf, spine, router

    def test_each_packet_reaches_exactly_one_route(self, pod):
        leaf, spine, router = self.build(pod)
        packets = [make_packet(src=i, dst=i + 2, ts=float(i))
                   for i in range(16)]          # same leaf: stays local
        packets += [make_packet(src=i, dst=i + 1, ts=float(16 + i))
                    for i in range(16)]         # cross leaf: spine
        results = router.process(packets)
        assert len(results["leaf"]) == 16
        assert len(results["spine"]) == 16
        assert leaf.stats.packets == 16
        assert spine.stats.packets == 16

    def test_unknown_route_name_skips_the_packet(self, pod):
        leaf = AsyncStreamEngine(SizePipeline(), PacketFeatureExtractor(),
                                 batch_size=8)
        router = PipelineRouter([Route("leaf", leaf)],
                                dispatch=lambda p: "nonexistent")
        results = router.process([make_packet(src=0, dst=2, ts=float(i))
                                  for i in range(8)])
        assert len(results["leaf"]) == 0
        assert leaf.stats.packets == 0

    def test_accept_still_applies_after_dispatch(self, pod):
        leaf = AsyncStreamEngine(SizePipeline(), PacketFeatureExtractor(),
                                 batch_size=8)
        router = PipelineRouter(
            [Route("leaf", leaf, accept=lambda p: p.size > 500)],
            dispatch=lambda p: "leaf",
        )
        packets = [make_packet(src=0, dst=2, ts=float(i),
                               size=600 if i % 2 else 100)
                   for i in range(16)]
        results = router.process(packets)
        assert len(results["leaf"]) == 8

    def test_without_dispatch_everything_fans_out(self, pod):
        leaf, spine, router = self.build(pod)
        broadcast = PipelineRouter(router.routes)  # no dispatch
        packets = [make_packet(src=0, dst=1, ts=float(i)) for i in range(8)]
        results = broadcast.process(packets)
        assert len(results["leaf"]) == 8
        assert len(results["spine"]) == 8
