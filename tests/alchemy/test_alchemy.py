"""Tests for the Alchemy DSL: Model, DataLoader, schedule, platforms, IOMap."""

import numpy as np
import pytest

from repro.alchemy import DataLoader, IOMap, IOMapper, Model, Platforms
from repro.alchemy.schedule import ScheduleNode
from repro.datasets import Dataset, load_nslkdd
from repro.errors import ConstraintError, SpecificationError


@pytest.fixture
def loader():
    @DataLoader
    def fn():
        return load_nslkdd(n_train=60, n_test=30, seed=0)

    return fn


@pytest.fixture
def model(loader):
    return Model(
        {
            "optimization_metric": ["f1"],
            "algorithm": ["dnn"],
            "name": "ad",
            "data_loader": loader,
        }
    )


class TestDataLoader:
    def test_wraps_dataset_return(self, loader):
        ds = loader.load("ad")
        assert isinstance(ds, Dataset)

    def test_wraps_dict_return(self):
        @DataLoader
        def fn():
            return {
                "data": {"train": np.ones((4, 2)), "test": np.ones((2, 2))},
                "labels": {"train": np.zeros(4), "test": np.zeros(2)},
            }

        assert fn.load().n_train == 4

    def test_caches_result(self):
        calls = []

        @DataLoader
        def fn():
            calls.append(1)
            return load_nslkdd(n_train=60, n_test=30, seed=0)

        fn.load()
        fn.load()
        assert len(calls) == 1

    def test_direct_call_still_works(self, loader):
        assert isinstance(loader(), Dataset)

    def test_non_callable_raises(self):
        with pytest.raises(SpecificationError):
            DataLoader(42)


class TestModel:
    def test_paper_dict_style(self, model):
        assert model.name == "ad"
        assert model.primary_metric == "f1"
        assert model.algorithms == ("dnn",)

    def test_kwargs_style(self, loader):
        m = Model(name="x", optimization_metric="accuracy", data_loader=loader)
        assert m.primary_metric == "accuracy"

    def test_empty_algorithms_means_auto(self, loader):
        m = Model(name="x", data_loader=loader)
        assert m.algorithms == ()

    def test_requires_name(self, loader):
        with pytest.raises(SpecificationError):
            Model(data_loader=loader)

    def test_requires_loader(self):
        with pytest.raises(SpecificationError):
            Model(name="x")

    def test_unknown_metric_rejected(self, loader):
        with pytest.raises(SpecificationError):
            Model(name="x", optimization_metric=["auc"], data_loader=loader)

    def test_unknown_algorithm_rejected(self, loader):
        with pytest.raises(SpecificationError):
            Model(name="x", algorithm=["transformer"], data_loader=loader)

    def test_unknown_key_rejected(self, loader):
        with pytest.raises(SpecificationError):
            Model({"name": "x", "data_loader": loader, "bogus": 1})

    def test_plain_callable_loader_accepted(self):
        m = Model(name="x", data_loader=lambda: load_nslkdd(n_train=60, n_test=30))
        assert m.load_dataset().n_train == 60


class TestSchedule:
    def test_sequential_operator(self, model, loader):
        other = Model(name="b", data_loader=loader)
        node = model > other
        assert node.kind == ScheduleNode.SEQ
        assert node.describe() == "ad > b"

    def test_parallel_operator(self, model, loader):
        other = Model(name="b", data_loader=loader)
        node = model | other
        assert node.describe() == "ad | b"

    def test_nested_composition(self, model):
        node = model >> (model | model) >> model
        assert node.describe() == "ad > (ad | ad) > ad"
        assert len(node.models()) == 4
        assert len(node.distinct_models()) == 1

    def test_chained_gt_is_a_python_footgun(self, model):
        # Chained ``>`` is a comparison chain: ``a > b > c`` silently
        # reduces to ``b > c``.  The ``>>`` alias composes correctly.
        chained = model > model > model > model
        assert len(chained.models()) == 2  # documented Python behaviour
        safe = model >> model >> model >> model
        assert len(safe.models()) == 4

    def test_distinct_models_by_identity(self, model, loader):
        other = Model(name="b", data_loader=loader)
        node = model > other > model
        assert len(node.distinct_models()) == 2

    def test_effective_throughput_is_min(self, model, loader):
        fast = Model(name="fast", data_loader=loader)
        slow = Model(name="slow", data_loader=loader)
        node = fast > slow
        assert node.effective_throughput({"fast": 1.0, "slow": 0.5}) == 0.5

    def test_compose_with_garbage_raises(self, model):
        with pytest.raises(SpecificationError):
            model > 42


class TestPlatforms:
    def test_factories(self):
        assert Platforms.Taurus().target == "taurus"
        assert Platforms.Tofino().target == "tofino"
        assert Platforms.FPGA().target == "fpga"

    def test_constrain_kwargs(self):
        p = Platforms.Taurus().constrain(
            performance={"throughput": 2, "latency": 300},
            resources={"rows": 8, "cols": 8},
        )
        assert p.performance["throughput"] == 2
        assert p.resources["rows"] == 8

    def test_constrain_nested_dict(self):
        p = Platforms.Taurus().constrain(
            {"performance": {"latency": 100}, "resources": {"rows": 4, "cols": 4}}
        )
        assert p.performance["latency"] == 100

    def test_lt_operator_tuple(self):
        p = Platforms.Tofino() < ({"throughput": 1}, {"mats": 6})
        assert p.resources["mats"] == 6

    def test_lt_operator_dict(self):
        p = Platforms.Tofino() < {"resources": {"mats": 3}}
        assert p.resources["mats"] == 3

    def test_invalid_performance_key(self):
        with pytest.raises(ConstraintError):
            Platforms.Taurus().constrain(performance={"jitter": 1})

    def test_non_positive_rejected(self):
        with pytest.raises(ConstraintError):
            Platforms.Taurus().constrain(performance={"latency": -5})
        with pytest.raises(ConstraintError):
            Platforms.Taurus().constrain(resources={"rows": 0})

    def test_schedule_accumulates_parallel(self, model, loader):
        other = Model(name="b", data_loader=loader)
        p = Platforms.Taurus()
        p.schedule(model)
        p.schedule(other)
        assert p.schedule_root.kind == ScheduleNode.PAR

    def test_models_requires_schedule(self):
        with pytest.raises(SpecificationError):
            Platforms.Taurus().models()

    def test_constraints_expand_grid(self, model):
        p = Platforms.Taurus().constrain(resources={"rows": 4, "cols": 4})
        limits = p.constraints()["resources"]
        assert limits == {"cus": 16, "mus": 16}

    def test_unknown_platform_raises(self):
        from repro.alchemy.platforms import PlatformSpec

        with pytest.raises(SpecificationError):
            PlatformSpec("gpu")


class TestIOMap:
    def test_declared_mapper_routes(self):
        @IOMapper(["a", "b"], ["total"])
        def mapper(a, b):
            return {"total": a + b}

        io = IOMap(mapper)
        assert io.route(a=1, b=2) == {"total": 3}

    def test_missing_input_raises(self):
        @IOMapper(["a"], ["out"])
        def mapper(a):
            return {"out": a}

        with pytest.raises(SpecificationError):
            mapper()

    def test_missing_output_raises(self):
        @IOMapper(["a"], ["out"])
        def mapper(a):
            return {"wrong": a}

        with pytest.raises(SpecificationError):
            mapper(a=1)

    def test_non_dict_return_raises(self):
        @IOMapper(["a"], ["out"])
        def mapper(a):
            return a

        with pytest.raises(SpecificationError):
            mapper(a=1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecificationError):
            IOMapper(["a", "a"], ["out"])(lambda a: {"out": a})

    def test_extra_outputs_filtered(self):
        @IOMapper(["a"], ["out"])
        def mapper(a):
            return {"out": a, "extra": 99}

        assert mapper(a=1) == {"out": 1}
