"""RunSpec / DatasetRef wire-format tests: JSON round-trips and
dataset materialization must be exact — the whole determinism story
rests on a worker rebuilding precisely what the driver described."""

import json

import numpy as np
import pytest

from repro.datasets import load_iot
from repro.datasets.base import Dataset
from repro.distrib import (
    DatasetRef,
    ModelEntry,
    RunSpec,
    load_dataset_npz,
    save_dataset_npz,
)
from repro.errors import SpecificationError


def tiny_dataset(seed=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        train_x=rng.normal(size=(24, 4)),
        train_y=rng.integers(0, 2, 24),
        test_x=rng.normal(size=(10, 4)),
        test_y=rng.integers(0, 2, 10),
        feature_names=("a", "b", "c", "d"),
        name="tiny",
        metadata={"source": "synthetic", "n": 24},
    )


class TestDatasetRef:
    def test_app_ref_materializes_identically_to_direct_load(self):
        ref = DatasetRef.for_app("tc", n_train=60, n_test=30, seed=11)
        via_ref = ref.materialize()
        direct = load_iot(n_train=60, n_test=30, seed=11)
        assert np.array_equal(via_ref.train_x, direct.train_x)
        assert np.array_equal(via_ref.test_y, direct.test_y)

    def test_unknown_app_rejected(self):
        with pytest.raises(SpecificationError):
            DatasetRef.for_app("nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            DatasetRef(kind="carrier-pigeon").materialize()
        with pytest.raises(SpecificationError):
            DatasetRef.from_dict({"kind": "carrier-pigeon"})

    @pytest.mark.parametrize(
        "ref",
        [
            DatasetRef.for_app("ad", n_train=50, n_test=20, seed=7),
            DatasetRef.for_csv("train.csv", "test.csv", name="mine"),
            DatasetRef.for_npz("/some/where.npz"),
        ],
        ids=["app", "csv", "npz"],
    )
    def test_json_roundtrip(self, ref):
        doc = json.loads(json.dumps(ref.to_dict()))
        assert DatasetRef.from_dict(doc) == ref

    def test_npz_snapshot_roundtrip(self, tmp_path):
        dataset = tiny_dataset()
        path = str(tmp_path / "snap" / "tiny.npz")
        ref = DatasetRef.snapshot(dataset, path)
        loaded = ref.materialize()
        assert np.array_equal(loaded.train_x, dataset.train_x)
        assert np.array_equal(loaded.train_y, dataset.train_y)
        assert loaded.feature_names == dataset.feature_names
        assert loaded.name == "tiny"
        assert loaded.metadata == {"source": "synthetic", "n": 24}
        assert loaded.content_digest() == dataset.content_digest()

    def test_npz_helpers_are_inverse(self, tmp_path):
        dataset = tiny_dataset(seed=9)
        path = save_dataset_npz(dataset, str(tmp_path / "d.npz"))
        again = load_dataset_npz(path)
        assert np.array_equal(again.test_x, dataset.test_x)


def spec_of(**overrides):
    base = dict(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=60, n_test=30, seed=11),
                algorithms=("decision_tree",),
            )
        ],
        budget=4,
        seed=0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_json_roundtrip(self):
        spec = spec_of(starts=3,
                       performance={"latency": 800.0},
                       cache_dir="cache/")
        doc = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(doc).to_dict() == spec.to_dict()

    def test_model_entry_roundtrip_keeps_explicit_seed(self):
        entry = ModelEntry(
            name="x",
            dataset=DatasetRef.for_app("ad", seed=7),
            metric="accuracy",
            algorithms=("dnn", "svm"),
            throughput=0.5,
            seed=123456,
        )
        again = ModelEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert again.seed == 123456
        assert again.algorithms == ("dnn", "svm")
        assert again.throughput == 0.5

    def test_validation(self):
        with pytest.raises(SpecificationError):
            RunSpec(target="tofino", models=[])
        with pytest.raises(SpecificationError):
            spec_of(budget=0)
        with pytest.raises(SpecificationError):
            spec_of(starts=0)
        with pytest.raises(SpecificationError):
            ModelEntry(name="x", dataset=DatasetRef.for_app("ad"), metric="mse")
        duplicate = ModelEntry(
            name="tc", dataset=DatasetRef.for_app("tc", seed=1)
        )
        with pytest.raises(SpecificationError):
            spec_of(models=[duplicate, duplicate])

    def test_build_platform_schedules_models_in_order(self):
        spec = RunSpec(
            target="taurus",
            models=[
                ModelEntry(name="one",
                           dataset=DatasetRef.for_app("ad", n_train=50,
                                                      n_test=20, seed=7)),
                ModelEntry(name="two",
                           dataset=DatasetRef.for_app("tc", n_train=50,
                                                      n_test=20, seed=11)),
            ],
            budget=2,
        )
        platform = spec.build_platform()
        assert [m.name for m in platform.models()] == ["one", "two"]

    def test_build_platform_applies_constraints(self):
        spec = spec_of(performance={"latency": 750.0}, resources={"mats": 12})
        platform = spec.build_platform()
        constraints = platform.constraints()
        assert constraints["performance"]["latency"] == 750.0
        assert constraints["resources"]["mats"] == 12
