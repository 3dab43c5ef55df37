"""Topology spec validation, deterministic expansion, wire format."""

import pytest

from repro.errors import BackendError, FabricError
from repro.fabric import Device, Link, TierSpec, Topology


class TestTierSpec:
    def test_unknown_tier_rejected(self):
        with pytest.raises(FabricError, match="unknown tier"):
            TierSpec("rack", count=2, device="tofino")

    @pytest.mark.parametrize("field,value", [
        ("count", 0), ("ports", 0), ("link_gbps", 0.0),
    ])
    def test_positive_scalars_enforced(self, field, value):
        kwargs = dict(tier="leaf", count=2, device="tofino", ports=4,
                      link_gbps=10.0)
        kwargs[field] = value
        with pytest.raises(FabricError):
            TierSpec(**kwargs)

    def test_server_tier_carries_no_device(self):
        with pytest.raises(FabricError, match="server tier"):
            TierSpec("server", count=4, device="tofino")

    def test_switch_tier_requires_device(self):
        with pytest.raises(FabricError, match="need a device"):
            TierSpec("leaf", count=2)

    def test_device_resolves_through_backend_registry(self):
        # Same resolver as the CLI: case-normalized, same error wording.
        assert TierSpec("leaf", count=1, device="Tofino").device == "tofino"
        with pytest.raises(BackendError, match="available"):
            TierSpec("leaf", count=1, device="broadcom")


class TestTopologyValidation:
    def test_needs_server_and_a_switch_tier(self):
        with pytest.raises(FabricError, match="switch tier"):
            Topology([TierSpec("server", count=4)])
        with pytest.raises(FabricError, match="server tier"):
            Topology([TierSpec("leaf", count=2, device="tofino")])

    def test_tiers_must_be_unique_and_ordered(self):
        with pytest.raises(FabricError, match="duplicate"):
            Topology([TierSpec("server", count=4),
                      TierSpec("server", count=4)])
        with pytest.raises(FabricError, match="bottom-up"):
            Topology([
                TierSpec("server", count=4, ports=2),
                TierSpec("spine", count=1, device="taurus"),
                TierSpec("leaf", count=2, device="tofino"),
            ])

    def test_spine_needs_leaf(self):
        with pytest.raises(FabricError, match="spine tier needs a leaf"):
            Topology([TierSpec("server", count=4, ports=2),
                      TierSpec("spine", count=1, device="taurus", ports=8)])

    def test_port_budget_enforced(self):
        # 2 leaves x 4 ports cannot carry ceil(8/2)=4 downlinks + 2 uplinks.
        with pytest.raises(FabricError, match="ports cannot carry"):
            Topology([
                TierSpec("server", count=8, ports=1),
                TierSpec("leaf", count=2, device="tofino", ports=4),
                TierSpec("spine", count=2, device="taurus", ports=4),
            ])


class TestExpansion:
    def test_devices_are_named_and_typed(self, make_pod):
        devices = make_pod().devices()
        assert devices == [
            Device("leaf0", "leaf", 0, "tofino"),
            Device("leaf1", "leaf", 1, "tofino"),
            Device("spine0", "spine", 0, "taurus"),
        ]

    def test_server_uplinks_stripe_across_leaves(self, make_pod):
        links = make_pod().links()
        assert Link("server0", "leaf0", 10.0) in links
        assert Link("server1", "leaf1", 10.0) in links
        assert Link("server2", "leaf0", 10.0) in links

    def test_switch_tiers_mesh_bipartite(self, make_pod):
        links = make_pod().links()
        assert Link("leaf0", "spine0", 40.0) in links
        assert Link("leaf1", "spine0", 40.0) in links

    def test_boundaries_aggregate_link_capacity(self, make_pod):
        boundaries = make_pod().boundaries()
        assert boundaries == [
            ("server-leaf", 8, 80.0),
            ("leaf-spine", 2, 80.0),
        ]

    def test_expansion_is_deterministic(self, make_pod):
        assert make_pod().links() == make_pod().links()
        assert make_pod().to_dict() == make_pod().to_dict()


class TestWireFormat:
    def test_round_trip(self, make_pod):
        pod = make_pod(leaf_resources={"mats": 16})
        clone = Topology.from_dict(pod.to_dict())
        assert clone.to_dict() == pod.to_dict()
        assert clone.tier("leaf").resources == {"mats": 16}
