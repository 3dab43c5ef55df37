"""Merge-layer unit tests: Pareto re-filtering, spill folding, stats
aggregation, and the coverage validation that guards a bad partition."""

import pytest

from repro.bayesopt.cache import EvaluationCache, config_key
from repro.bayesopt.results import Evaluation
from repro.distrib import (
    DatasetRef,
    ModelEntry,
    RunSpec,
    aggregate_stats,
    merge_fronts,
    merge_results,
    merge_spills,
)
from repro.distrib.merge import merge_shard_spill_dirs
from repro.distrib.worker import ShardResult, UnitResult
from repro.errors import DistributionError


def ev(objective, mats, **config):
    return Evaluation(
        config=config or {"x": objective},
        objective=objective,
        feasible=True,
        metrics={"resource_mats": mats},
    )


class TestMergeFronts:
    def test_refilters_across_shards(self):
        # Shard A's front point (0.8, 10 mats) is dominated by shard B's
        # (0.9, 8 mats): the merged front must drop it.
        front_a = [ev(0.8, 10, x=1), ev(0.5, 3, x=2)]
        front_b = [ev(0.9, 8, x=3)]
        merged = merge_fronts([front_a, front_b], "resource_mats")
        kept = {e.config["x"] for e in merged}
        assert kept == {2, 3}

    def test_union_of_fronts_is_not_a_front(self):
        # Both inputs are valid fronts on their own; the union is not.
        a = [ev(0.7, 5, x=1)]
        b = [ev(0.7, 4, x=2)]
        merged = merge_fronts([a, b], "resource_mats")
        assert [e.config["x"] for e in merged] == [2]

    def test_sorted_by_resource_then_objective(self):
        merged = merge_fronts(
            [[ev(0.5, 3, x=1), ev(0.9, 9, x=2)], [ev(0.7, 6, x=3)]],
            "resource_mats",
        )
        assert [e.config["x"] for e in merged] == [1, 3, 2]

    def test_duplicate_points_deduplicated(self):
        twin_a = ev(0.8, 5, x=1)
        twin_b = ev(0.8, 5, x=1)
        merged = merge_fronts([[twin_a], [twin_b]], "resource_mats")
        assert len(merged) == 1

    def test_infeasible_and_unmetered_points_excluded(self):
        bad = Evaluation(config={"x": 1}, objective=0.99, feasible=False,
                         metrics={"resource_mats": 1})
        unmetered = Evaluation(config={"x": 2}, objective=0.99, feasible=True)
        merged = merge_fronts([[bad, unmetered, ev(0.5, 5, x=3)]], "resource_mats")
        assert [e.config["x"] for e in merged] == [3]

    def test_empty(self):
        assert merge_fronts([], "resource_mats") == []
        assert merge_fronts([[]], "resource_mats") == []


class TestMergeSpills:
    def spill(self, tmp_path, name, entries):
        cache = EvaluationCache()
        for config, objective in entries:
            cache.put(config, Evaluation(config=config, objective=objective))
        path = str(tmp_path / name)
        cache.save(path)
        return path

    def test_last_writer_wins_in_shard_order(self, tmp_path):
        a = self.spill(tmp_path, "a.json", [({"x": 1}, 0.1), ({"x": 2}, 0.2)])
        b = self.spill(tmp_path, "b.json", [({"x": 1}, 0.9)])
        merged = merge_spills([a, b], str(tmp_path / "merged.json"))
        assert merged.get({"x": 1}).objective == 0.9   # b loaded last, wins
        assert merged.get({"x": 2}).objective == 0.2
        reversed_merge = merge_spills([b, a], str(tmp_path / "merged2.json"))
        assert reversed_merge.get({"x": 1}).objective == 0.1

    def test_merged_spill_is_loadable(self, tmp_path):
        a = self.spill(tmp_path, "a.json", [({"x": 1}, 0.5)])
        out = str(tmp_path / "merged.json")
        merge_spills([a], out)
        assert len(EvaluationCache(path=out)) == 1

    def test_shard_spill_dirs_grouped_by_basename(self, tmp_path):
        shard0 = tmp_path / "s0"
        shard1 = tmp_path / "s1"
        shard0.mkdir()
        shard1.mkdir()
        self.spill(shard0, "fam_a.json", [({"x": 1}, 0.1)])
        self.spill(shard1, "fam_a.json", [({"x": 1}, 0.7), ({"x": 9}, 0.9)])
        self.spill(shard1, "fam_b.json", [({"y": 1}, 0.3)])
        out = tmp_path / "merged"
        out.mkdir()
        union = merge_shard_spill_dirs([str(shard0), str(shard1)], str(out))
        assert sorted(p.name for p in out.iterdir()) == ["fam_a.json", "fam_b.json"]
        assert union.get({"x": 1}).objective == 0.7  # shard 1 wrote last
        assert len(union) == 3

    def test_no_spills_returns_none(self, tmp_path):
        assert merge_shard_spill_dirs([None, str(tmp_path / "nope")],
                                      str(tmp_path)) is None


class TestOrphanTmpSweep:
    """A writer SIGKILLed between tmp-create and os.replace leaves
    ``<spill>.tmp.<pid>.<tid>`` litter; merge time must sweep it."""

    def plant_orphan(self, directory, name="fam_a.json.tmp.99999.140001"):
        orphan = directory / name
        orphan.write_text('{"half": "written')   # torn JSON, never renamed
        return orphan

    def spill(self, tmp_path, name, entries):
        cache = EvaluationCache()
        for config, objective in entries:
            cache.put(config, Evaluation(config=config, objective=objective))
        path = str(tmp_path / name)
        cache.save(path)
        return path

    def test_merge_spills_sweeps_input_and_output_dirs(self, tmp_path):
        spills = tmp_path / "spills"
        out = tmp_path / "out"
        spills.mkdir()
        out.mkdir()
        a = self.spill(spills, "a.json", [({"x": 1}, 0.5)])
        in_orphan = self.plant_orphan(spills, "a.json.tmp.4242.1")
        out_orphan = self.plant_orphan(out, "merged.json.tmp.4242.2")
        merged = merge_spills([a], str(out / "merged.json"))
        assert not in_orphan.exists()
        assert not out_orphan.exists()
        assert merged.get({"x": 1}).objective == 0.5  # merge unaffected

    def test_shard_dir_merge_sweeps_planted_orphan(self, tmp_path):
        shard0 = tmp_path / "s0"
        shard0.mkdir()
        self.spill(shard0, "fam_a.json", [({"x": 1}, 0.1)])
        orphan = self.plant_orphan(shard0)
        out = tmp_path / "merged"
        out.mkdir()
        union = merge_shard_spill_dirs([str(shard0)], str(out))
        assert not orphan.exists()
        assert union.get({"x": 1}).objective == 0.1
        # The real spill survived the sweep.
        assert (shard0 / "fam_a.json").exists()

    def test_sweep_spares_live_files_and_respects_age(self, tmp_path):
        import os
        import time

        from repro.fsio import sweep_orphan_tmp

        keep = tmp_path / "fam.json"           # real artifact
        keep.write_text("{}")
        lookalike = tmp_path / "fam.json.tmp.x.1"   # pid is not digits
        lookalike.write_text("")
        fresh = tmp_path / "fam.json.tmp.1.2"
        fresh.write_text("")
        old = tmp_path / "fam.json.tmp.3.4"
        old.write_text("")
        past = time.time() - 3600
        os.utime(old, (past, past))
        removed = sweep_orphan_tmp(str(tmp_path), older_than_s=60.0)
        assert removed == [str(old)]
        assert keep.exists() and lookalike.exists() and fresh.exists()
        # older_than_s=0 takes the fresh one too.
        assert sweep_orphan_tmp(str(tmp_path)) == [str(fresh)]

    def test_sweep_missing_dir_is_noop(self, tmp_path):
        from repro.fsio import sweep_orphan_tmp

        assert sweep_orphan_tmp(str(tmp_path / "nope")) == []
        assert sweep_orphan_tmp("") == []


def unit(model=0, family=0, start=0, n=3):
    return UnitResult(
        model_index=model, model_name="m", family_index=family,
        algorithm=f"f{family}", start=start,
        history=[ev(0.1 * i, 5, x=i) for i in range(n)],
    )


class TestAggregateStats:
    def test_counts_units_and_tracks_critical_path(self):
        shards = [
            ShardResult(index=0, n_shards=2, elapsed_s=2.0, units=[unit()]),
            ShardResult(index=1, n_shards=2, elapsed_s=5.0,
                        units=[unit(family=1), unit(family=2)]),
        ]
        stats = aggregate_stats(shards)
        assert stats["shards"] == 2
        assert stats["units"] == 3
        assert stats["critical_path_s"] == 5.0
        assert stats["total_work_s"] == 7.0
        assert stats["per_shard"][1]["evaluations"] == 6


class TestMergeResultsValidation:
    def spec(self):
        return RunSpec(
            target="tofino",
            models=[
                ModelEntry(
                    name="tc",
                    dataset=DatasetRef.for_app("tc", n_train=60, n_test=30,
                                               seed=11),
                    algorithms=("decision_tree",),
                )
            ],
            budget=3,
            seed=0,
        )

    def test_duplicate_unit_rejected(self):
        shards = [
            ShardResult(index=0, n_shards=2, units=[unit()]),
            ShardResult(index=1, n_shards=2, units=[unit()]),
        ]
        with pytest.raises(DistributionError, match="two shards"):
            merge_results(self.spec(), shards)

    def test_short_history_rejected(self):
        shards = [ShardResult(index=0, n_shards=1, units=[unit(n=2)])]
        with pytest.raises(DistributionError, match="expected 3"):
            merge_results(self.spec(), shards)

    def test_missing_and_unplanned_units_rejected(self):
        # The only planned unit (0, 0, 0) is absent and a unit for a
        # nonexistent model 5 shows up: both must be named in the error.
        shards = [ShardResult(index=0, n_shards=1,
                              units=[unit(model=5, n=3)])]
        with pytest.raises(DistributionError, match="do not match the plan"):
            merge_results(self.spec(), shards)

    def test_dropped_family_is_detected(self):
        # A worker silently returning no units at all (e.g. a malformed
        # result JSON defaulting to units=[]) must not merge quietly.
        shards = [ShardResult(index=0, n_shards=1, units=[])]
        with pytest.raises(DistributionError, match="missing units"):
            merge_results(self.spec(), shards)

    def test_wrong_algorithm_rejected(self):
        # Right (model, family, start) key, wrong algorithm name: the
        # plan knows family 0 is decision_tree, the fake says 'f0'.
        shards = [ShardResult(index=0, n_shards=1, units=[unit(n=3)])]
        with pytest.raises(DistributionError, match="wrong algorithm"):
            merge_results(self.spec(), shards)


def test_config_key_shared_with_cache():
    """Merged-cache identity uses the same canonical key as the engine."""
    assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})
