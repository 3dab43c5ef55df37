"""Tests for the persistent evaluation cache."""

import json

import pytest

from repro.bayesopt.cache import EvaluationCache, config_key
from repro.bayesopt.results import Evaluation
from repro.bayesopt.space import DesignSpace, Integer
from repro.core.evaluator import ModelEvaluator
from repro.errors import DesignSpaceError


@pytest.fixture
def space():
    return DesignSpace([Integer("x", -10, 10), Integer("y", -10, 10)])


class TestConfigKey:
    def test_order_independent(self):
        assert config_key({"a": 1, "b": 2.5}) == config_key({"b": 2.5, "a": 1})

    def test_distinguishes_types(self):
        # int 1 and float 1.0 train differently (repr-based identity).
        assert config_key({"a": 1}) != config_key({"a": 1.0})

    def test_distinguishes_values(self):
        assert config_key({"a": 1}) != config_key({"a": 2})


class TestEvaluationCache:
    def test_put_get_roundtrip(self):
        cache = EvaluationCache()
        ev = Evaluation(config={"x": 1}, objective=0.5, metrics={"m": 1.0})
        cache.put({"x": 1}, ev)
        assert cache.get({"x": 1}) == ev
        assert {"x": 1} in cache
        assert len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = EvaluationCache()
        assert cache.get({"x": 2}) is None
        cache.put({"x": 2}, Evaluation(config={"x": 2}, objective=1.0))
        cache.get({"x": 2})
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_json_spill_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = EvaluationCache()
        ev = Evaluation(
            config={"x": 3, "r": 0.125, "c": "relu"},
            objective=0.75,
            feasible=False,
            metrics={"latency_ns": 42.0, "violations": "too slow"},
        )
        cache.put(ev.config, ev)
        cache.save(path)

        loaded = EvaluationCache(path=path)
        assert len(loaded) == 1
        back = loaded.get({"x": 3, "r": 0.125, "c": "relu"})
        assert back == ev

    def test_constructor_path_is_save_default(self, tmp_path):
        path = str(tmp_path / "spill.json")
        cache = EvaluationCache(path=path)
        cache.put({"x": 1}, Evaluation(config={"x": 1}, objective=1.0))
        assert cache.save() == path
        assert EvaluationCache(path=path).get({"x": 1}) is not None

    def test_clear(self):
        cache = EvaluationCache()
        cache.put({"x": 1}, Evaluation(config={"x": 1}, objective=1.0))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats["hits"] == 0

    def test_save_without_path_raises(self):
        with pytest.raises(DesignSpaceError):
            EvaluationCache().save()

    def test_merging_spills_keeps_newest_entry_deterministically(self, tmp_path):
        # Two spills disagree about the same configuration (a re-run with
        # a fixed harness, say).  Load order decides, last-writer-wins:
        # whichever spill merges most recently owns the key.
        config = {"x": 1, "c": "relu"}
        older = str(tmp_path / "older.json")
        newer = str(tmp_path / "newer.json")
        stale = EvaluationCache()
        stale.put(config, Evaluation(config=config, objective=0.25))
        stale.put({"x": 9}, Evaluation(config={"x": 9}, objective=0.9))
        stale.save(older)
        fresh = EvaluationCache()
        fresh.put(config, Evaluation(config=config, objective=0.75))
        fresh.save(newer)

        merged = EvaluationCache()
        assert merged.load(older) == 2
        assert merged.load(newer) == 1
        assert len(merged) == 2  # conflicting key merged, not duplicated
        assert merged.get(config).objective == 0.75  # newer spill won
        assert merged.get({"x": 9}).objective == 0.9  # disjoint key kept

        # Deterministic, not timing- or hash-order-dependent: reversing
        # the load order flips the winner.
        reversed_merge = EvaluationCache()
        reversed_merge.load(newer)
        reversed_merge.load(older)
        assert reversed_merge.get(config).objective == 0.25

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "entries": []}))
        with pytest.raises(DesignSpaceError):
            EvaluationCache(path=str(path))

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format": "homunculus-evaluation-cache", "version": 99})
        )
        with pytest.raises(DesignSpaceError):
            EvaluationCache(path=str(path))

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DesignSpaceError):
            EvaluationCache(path=str(path))


class TestModelEvaluatorCache:
    def test_duplicate_evaluations_trained_once(self, tc_dataset):
        from repro.alchemy import DataLoader, Model
        from repro.backends.tofino import TofinoBackend

        @DataLoader
        def loader():
            return tc_dataset

        spec = Model(
            {
                "optimization_metric": ["f1"],
                "algorithm": ["decision_tree"],
                "name": "tc",
                "data_loader": loader,
            }
        )
        cache = EvaluationCache()
        evaluator = ModelEvaluator(
            spec, tc_dataset, "decision_tree", TofinoBackend(),
            {"performance": {}, "resources": {}}, seed=0, cache=cache,
        )
        config = {"max_depth": 3, "min_samples_leaf": 2}
        first = evaluator.evaluate(config)
        second = evaluator.evaluate(config)
        assert second is first  # served from cache, not retrained
        assert cache.stats["hits"] == 1


class TestAtomicSpills:
    """The save path must never expose partial JSON, even under racing
    writers (the distributed-shard spill scenario)."""

    def _cache_with(self, tag: str, n: int) -> EvaluationCache:
        cache = EvaluationCache()
        for i in range(n):
            cache.put(
                {"x": i, "writer": tag},
                Evaluation(config={"x": i, "writer": tag}, objective=float(i)),
            )
        return cache

    def test_save_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "spill.json"
        self._cache_with("a", 5).save(str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spill.json"]

    def test_failed_save_leaves_no_partial_file(self, tmp_path):
        cache = self._cache_with("a", 2)
        # An unserializable metrics payload aborts mid-dump.
        cache.put(
            {"x": 99},
            Evaluation(config={"x": 99}, objective=0.0, metrics={"bad": object()}),
        )
        path = tmp_path / "spill.json"
        with pytest.raises(TypeError):
            cache.save(str(path))
        assert not path.exists()
        assert sorted(tmp_path.iterdir()) == []  # tmp file cleaned up too

    def test_concurrent_writers_always_leave_valid_json(self, tmp_path):
        """Many threads hammering one spill path: every intermediate read
        parses, and the final file equals one writer's complete table."""
        import threading

        path = str(tmp_path / "spill.json")
        writers = {tag: self._cache_with(tag, 8) for tag in "abcdef"}
        errors = []

        def spill(tag):
            try:
                for _ in range(15):
                    writers[tag].save(path)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        writers["a"].save(path)  # the file exists before readers race it
        threads = [threading.Thread(target=spill, args=(t,)) for t in writers]
        for t in threads:
            t.start()
        # Reader races the writers: every observed state must parse and
        # carry the format tag (i.e. never a half-written document).
        for _ in range(40):
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["format"] == "homunculus-evaluation-cache"
        for t in threads:
            t.join()
        assert not errors
        final = EvaluationCache(path=path)
        assert len(final) == 8
        tags = {e.config["writer"] for e in final._entries.values()}
        assert len(tags) == 1  # one complete writer, not an interleaving

    def test_concurrent_writer_processes(self, tmp_path):
        """Cross-process writers (the real shard case) cannot corrupt a
        spill: os.replace is atomic at the filesystem level."""
        from concurrent.futures import ProcessPoolExecutor

        path = str(tmp_path / "spill.json")
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_spill_from_process, [(path, tag) for tag in "abcd"]))
        final = EvaluationCache(path=path)
        assert len(final) == 6
        assert len({e.config["writer"] for e in final._entries.values()}) == 1


def _spill_from_process(args):
    """Module-level helper so ProcessPoolExecutor can pickle it."""
    path, tag = args
    cache = EvaluationCache()
    for i in range(6):
        cache.put(
            {"x": i, "writer": tag},
            Evaluation(config={"x": i, "writer": tag}, objective=float(i)),
        )
    for _ in range(10):
        cache.save(path)


class TestCachePickling:
    def test_pickle_roundtrip_preserves_entries_and_counters(self):
        import pickle

        cache = EvaluationCache()
        cache.put({"x": 1}, Evaluation(config={"x": 1}, objective=2.0))
        cache.get({"x": 1})
        cache.get({"x": 5})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get({"x": 1}).objective == 2.0
        assert clone.stats["misses"] >= 1
        # The clone has a working (new) lock: mutation must not deadlock.
        clone.put({"x": 2}, Evaluation(config={"x": 2}, objective=3.0))
        assert len(clone) == 2
