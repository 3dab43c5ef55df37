"""Shard planning: unit enumeration, seed derivations, and the
unit-to-task schedule — the determinism-critical plumbing."""

import numpy as np
import pytest

from repro.core.compiler import family_search_seed, model_search_seed
from repro.distrib import (
    DatasetRef,
    ModelEntry,
    RunSpec,
    ShardSpec,
    WorkUnit,
    plan_tasks,
    plan_units,
)
from repro.distrib.scheduler import unit_family_seed, unit_model_seed
from repro.errors import SpecificationError


def two_family_spec(starts=1):
    return RunSpec(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=60, n_test=30, seed=11),
                algorithms=("decision_tree", "svm"),
            )
        ],
        budget=3,
        starts=starts,
        seed=0,
    )


class TestPlanUnits:
    def test_enumerates_families_in_candidate_order(self):
        units = plan_units(two_family_spec())
        assert [(u.algorithm, u.family_index, u.start) for u in units] == [
            ("decision_tree", 0, 0),
            ("svm", 1, 0),
        ]

    def test_multistart_expands_each_family(self):
        units = plan_units(two_family_spec(starts=3))
        assert len(units) == 6
        assert [(u.family_index, u.start) for u in units] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_datasets_dict_is_filled_and_reused(self):
        datasets = {}
        plan_units(two_family_spec(), datasets=datasets)
        assert set(datasets) == {0}
        marker = datasets[0]
        plan_units(two_family_spec(), datasets=datasets)
        assert datasets[0] is marker  # reused, not re-materialized


class TestSeeds:
    def test_start_zero_matches_serial_derivation(self):
        mseed = model_search_seed(0, 0)
        serial = family_search_seed(mseed, 1)
        distributed = unit_family_seed(mseed, 1, start=0)
        assert (
            serial.integers(0, 2**31, 8).tolist()
            == distributed.integers(0, 2**31, 8).tolist()
        )

    def test_starts_get_independent_streams(self):
        mseed = model_search_seed(0, 0)
        streams = [
            unit_family_seed(mseed, 0, start=s).integers(0, 2**31, 4).tolist()
            for s in range(4)
        ]
        assert len({tuple(s) for s in streams}) == 4

    def test_explicit_model_seed_override(self):
        spec = two_family_spec()
        assert unit_model_seed(spec, 0) == model_search_seed(0, 0)
        spec.models[0].seed = 777
        assert unit_model_seed(spec, 0) == 777

    def test_start_salts_cannot_collide_with_family_indices(self):
        # A start-1 stream of family 0 must differ from the start-0
        # stream of every plausible family index.
        mseed = model_search_seed(0, 0)
        salted = unit_family_seed(mseed, 0, start=1).integers(0, 2**31, 4).tolist()
        for family in range(64):
            base = unit_family_seed(mseed, family, start=0)
            assert base.integers(0, 2**31, 4).tolist() != salted


class TestPlanShards:
    """The :class:`ShardSpec` tasks :func:`plan_tasks` hands launchers."""

    def units(self, n):
        return [
            WorkUnit(model_index=0, model_name="m", family_index=i,
                     algorithm=f"f{i}", start=0)
            for i in range(n)
        ]

    def test_every_unit_assigned_exactly_once(self):
        units = self.units(7)
        shards = plan_tasks(units, 3)
        seen = [u for s in shards for u in s.units]
        assert sorted(u.family_index for u in seen) == list(range(7))

    def test_clamps_to_unit_count(self):
        shards = plan_tasks(self.units(2), 8)
        assert len(shards) == 2
        assert all(len(s.units) == 1 for s in shards)

    def test_errors(self):
        with pytest.raises(SpecificationError):
            plan_tasks(self.units(2), 0)
        with pytest.raises(SpecificationError):
            plan_tasks([], 2)

    def test_shard_spec_json_roundtrip(self):
        shard = plan_tasks(self.units(3), 2)[0]
        again = ShardSpec.from_dict(shard.to_dict())
        assert again.index == shard.index
        assert again.units == shard.units


class TestPlanTasks:
    def units(self, n):
        return [
            WorkUnit(model_index=0, model_name="m", family_index=i,
                     algorithm=f"f{i}", start=0)
            for i in range(n)
        ]

    def test_unit_granularity_posts_one_task_per_unit(self):
        tasks = plan_tasks(self.units(5), 2)
        assert len(tasks) == 5
        assert [t.index for t in tasks] == list(range(5))
        assert all(len(t.units) == 1 for t in tasks)
        assert all(t.attempt == 0 for t in tasks)
        # Unit order is preserved: task i carries unit i.
        assert [t.units[0].family_index for t in tasks] == list(range(5))

    def test_unit_granularity_ignores_shard_count_for_task_count(self):
        # shards bounds concurrency, not the task list.
        assert len(plan_tasks(self.units(6), 2)) == 6
        assert len(plan_tasks(self.units(6), 100)) == 6

    def test_errors(self):
        with pytest.raises(SpecificationError):
            plan_tasks(self.units(2), 0)
        with pytest.raises(SpecificationError):
            plan_tasks([], 2)

    def test_attempt_survives_json_roundtrip(self):
        task = plan_tasks(self.units(2), 1)[1]
        task.attempt = 3
        again = ShardSpec.from_dict(task.to_dict())
        assert again.attempt == 3
        assert again.units == task.units
        # Old wire payloads without the field default to attempt 0.
        doc = task.to_dict()
        del doc["attempt"]
        assert ShardSpec.from_dict(doc).attempt == 0


def test_work_unit_roundtrip():
    unit = WorkUnit(model_index=2, model_name="ad", family_index=1,
                    algorithm="svm", start=3)
    assert WorkUnit.from_dict(unit.to_dict()) == unit


def test_plan_is_shard_count_invariant():
    units = plan_units(two_family_spec(starts=2))
    flat = {(u.model_index, u.family_index, u.start) for u in units}
    for n in (1, 2, 3, 4):
        shards = plan_tasks(units, n)
        regrouped = {
            (u.model_index, u.family_index, u.start)
            for s in shards for u in s.units
        }
        assert regrouped == flat


def test_unit_seeds_are_integers_not_arrays():
    spec = two_family_spec()
    seed = unit_model_seed(spec, 0)
    assert isinstance(seed, int)
    assert isinstance(np.random.default_rng(seed), np.random.Generator)
