"""Planner determinism: seeds, byte-identical plans, chaos survival."""

import json

import pytest

from repro.distrib.launchers import SubprocessLauncher
from repro.distrib.worker import CHAOS_KILL_ENV
from repro.errors import FabricError, InfeasibleError, PlacementError
from repro.fabric import (
    FabricApp,
    FabricPlan,
    FabricSpec,
    fabric_model_seed,
    plan_fabric,
)
from repro.fabric.topology import TIER_ORDER


class TestFabricModelSeed:
    def test_same_inputs_same_seed(self):
        assert (fabric_model_seed(0, "leaf", 0)
                == fabric_model_seed(0, "leaf", 0))

    def test_tier_and_app_index_separate_streams(self):
        seeds = {
            fabric_model_seed(0, tier, index)
            for tier in ("leaf", "spine", "core")
            for index in range(4)
        }
        assert len(seeds) == 12  # no collisions across the small grid

    def test_root_seed_shifts_every_stream(self):
        assert (fabric_model_seed(0, "leaf", 0)
                != fabric_model_seed(1, "leaf", 0))

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            fabric_model_seed(0, "rack", 0)

    def test_device_identity_never_enters(self):
        # The seed namespace is (tier position, app index) only: the
        # same coordinates always map to the same derivation slot.
        for tier in TIER_ORDER[1:]:
            assert (fabric_model_seed(7, tier, 3)
                    == fabric_model_seed(7, tier, 3))


class TestFabricSpecValidation:
    def test_duplicate_app_names_rejected(self, make_leaf_spec):
        base = make_leaf_spec()
        with pytest.raises(FabricError, match="duplicate app names"):
            FabricSpec(base.topology, [base.apps[0], base.apps[0]],
                       budget=2)

    def test_empty_apps_rejected(self, make_leaf_spec):
        with pytest.raises(FabricError, match="at least one app"):
            FabricSpec(make_leaf_spec().topology, [])

    def test_bad_tier_reference_fails_at_construction(self, make_leaf_spec):
        base = make_leaf_spec()
        bad = FabricApp("tc", base.apps[0].dataset, tiers=("spine",))
        with pytest.raises(FabricError, match="only has"):
            FabricSpec(base.topology, [bad], budget=2)

    def test_bad_knobs_rejected(self, make_leaf_spec):
        base = make_leaf_spec()
        with pytest.raises(FabricError, match="budget"):
            FabricSpec(base.topology, base.apps, budget=0)

    def test_spec_round_trip(self, make_leaf_spec):
        spec = make_leaf_spec()
        clone = FabricSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()


@pytest.fixture(scope="module")
def reference_plan(leaf_spec):
    return plan_fabric(leaf_spec)


class TestPlanShape:
    def test_one_entry_per_device_app(self, reference_plan):
        keys = [(e["device"], e["app"]) for e in reference_plan.devices]
        assert keys == [("leaf0", "tc"), ("leaf1", "tc")]
        assert reference_plan.tiers() == ["leaf"]

    def test_replica_devices_land_on_identical_winners(self, reference_plan):
        left, right = reference_plan.devices
        # Same tier + same app index => same seed => same trajectory.
        assert left["seed"] == right["seed"]
        assert left["best_config"] == right["best_config"]
        assert left["objective"] == right["objective"]

    def test_placement_and_traffic_rollups_present(self, reference_plan):
        placed = reference_plan.placement["devices"]
        assert set(placed) == {"leaf0", "leaf1"}
        for doc in placed.values():
            assert all(v >= 0 for v in doc["headroom"].values())
        assert reference_plan.traffic["worst"]["boundary"] == "server-leaf"

    def test_device_entries_filter(self, reference_plan):
        assert len(reference_plan.device_entries("leaf0")) == 1
        assert len(reference_plan.device_entries()) == 2


class TestPlanDeterminism:
    def test_replan_is_byte_identical(self, leaf_spec, reference_plan):
        assert plan_fabric(leaf_spec).to_json() == reference_plan.to_json()

    def test_sharding_does_not_change_the_plan(self, leaf_spec,
                                               reference_plan, tmp_path):
        sharded = plan_fabric(leaf_spec, shards=2,
                              shard_dir=str(tmp_path / "shards"))
        assert sharded.to_json() == reference_plan.to_json()

    def test_chaos_kill_is_absorbed(self, leaf_spec, reference_plan,
                                    tmp_path, monkeypatch):
        # Kill the first worker attempt of unit-0000 mid-run; the retry
        # must reproduce the reference plan byte for byte.
        marker = tmp_path / "chaos-marker"
        monkeypatch.setenv(CHAOS_KILL_ENV, f"unit-0000.a0@{marker}")
        survived = plan_fabric(
            leaf_spec, shards=2, launcher=SubprocessLauncher(timeout=300),
            shard_dir=str(tmp_path / "shards"), max_retries=2,
        )
        assert marker.exists(), "chaos hook never fired"
        assert survived.to_json() == reference_plan.to_json()

    def test_save_load_round_trip(self, reference_plan, tmp_path):
        path = reference_plan.save(str(tmp_path / "plan.json"))
        clone = FabricPlan.load(path)
        assert clone.to_json() == reference_plan.to_json()
        # And the file itself is the canonical serialization.
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == reference_plan.to_json()

    def test_plan_json_is_pure_stdlib(self, reference_plan):
        # No numpy scalars may leak into the document.
        json.loads(reference_plan.to_json())

    def test_seed_change_changes_the_plan(self, reference_plan,
                                           make_leaf_spec):
        other = plan_fabric(make_leaf_spec(seed=1))
        assert other.to_json() != reference_plan.to_json()


class TestPlacementFailure:
    def test_over_budget_placement_names_device_and_resource(
            self, make_leaf_spec):
        # A 1-MAT leaf cannot host even the smallest tree; the compile
        # itself fails loudly before placement.
        spec = make_leaf_spec(leaf_resources={"mats": 1})
        with pytest.raises((PlacementError, InfeasibleError)) as err:
            plan_fabric(spec)
        assert "mats" in str(err.value) or "resources" in str(err.value)
