"""Model/search specs must pickle, so they can cross a process boundary.

Loader closures pickle as their materialized dataset; evaluators carry
their cache along and keep scoring identically after a round trip."""

import pickle

import numpy as np
import pytest

from repro.alchemy import DataLoader, Model, Platforms
from repro.core.evaluator import ModelEvaluator
from repro.datasets import load_iot
from repro.errors import SpecificationError


def make_model(dataset, name="tc", algorithms=("decision_tree",)):
    @DataLoader
    def loader():
        return dataset

    return Model(
        name=name,
        optimization_metric=["f1"],
        algorithm=list(algorithms),
        data_loader=loader,
    )


@pytest.fixture(scope="module")
def dataset():
    return load_iot(n_train=100, n_test=40, seed=11)


class TestSpecPickling:
    def test_model_with_closure_loader_pickles(self, dataset):
        model = make_model(dataset)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.name == "tc"
        loaded = clone.load_dataset()
        assert np.array_equal(loaded.train_x, dataset.train_x)

    def test_unpickled_loader_cannot_be_called_raw(self, dataset):
        model = pickle.loads(pickle.dumps(make_model(dataset)))
        with pytest.raises(SpecificationError, match="materialized"):
            model.data_loader()  # the closure did not survive — by design

    def test_platform_spec_pickles(self, dataset):
        platform = Platforms.Tofino().constrain(resources={"mats": 16})
        platform.schedule(make_model(dataset))
        clone = pickle.loads(pickle.dumps(platform))
        assert clone.target == "tofino"
        assert [m.name for m in clone.models()] == ["tc"]

    def test_model_evaluator_pickles_and_evaluates(self, dataset):
        from repro.backends.tofino import TofinoBackend

        evaluator = ModelEvaluator(
            make_model(dataset), dataset, "decision_tree", TofinoBackend(),
            {"performance": {}, "resources": {}}, seed=0, train_epochs=3,
        )
        clone = pickle.loads(pickle.dumps(evaluator))
        config = {"max_depth": 3, "min_samples_leaf": 2}
        assert clone.evaluate(config).objective == evaluator.evaluate(config).objective
