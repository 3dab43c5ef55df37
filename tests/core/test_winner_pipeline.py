"""The compile report carries the winner's pipeline, trained once.

``finalize_model_report`` trains and lowers the winning configuration;
the report keeps that :class:`CompiledPipeline` so serving, adaptation
and the experiment tables use it instead of training it again.  It must
be exactly what a fresh deterministic rebuild produces, and it must not
leak into the exported JSON.
"""

import json

import numpy as np
import pytest

import repro
from repro.core.evaluator import ModelEvaluator
from repro.core.export import export_report, report_to_dict
from repro.distrib import DatasetRef, InProcessLauncher, ModelEntry, RunSpec, run_sharded
from repro.distrib.scheduler import unit_model_seed


def make_spec():
    return RunSpec(
        target="taurus",
        models=[
            ModelEntry(
                name="ad",
                dataset=DatasetRef.for_app("ad", n_train=200, n_test=80, seed=5),
                algorithms=("dnn", "svm"),
            )
        ],
        performance={"throughput": 1, "latency": 500},
        resources={"rows": 16, "cols": 16},
        budget=3,
        warmup=2,
        train_epochs=4,
        seed=0,
    )


def fresh_pipeline(spec: RunSpec, best):
    """The winner rebuilt from scratch under the serial seed rule."""
    entry = spec.models[0]
    dataset = entry.dataset.materialize()
    platform = spec.build_platform(datasets={0: dataset})
    evaluator = ModelEvaluator(
        entry.to_model(dataset), dataset, best.algorithm, platform.backend(),
        platform.constraints(), seed=unit_model_seed(spec, 0),
        train_epochs=spec.train_epochs,
    )
    _, pipeline, _ = evaluator.rebuild(best.best_config)
    return pipeline, dataset


def assert_same_pipeline(carried, fresh, dataset):
    rows = np.vstack([dataset.train_x, dataset.test_x])
    assert np.array_equal(carried.predict(rows), fresh.predict(rows))
    assert carried.sources == fresh.sources
    assert dict(carried.resources.usage) == dict(fresh.resources.usage)


@pytest.fixture(scope="module")
def serial_report():
    spec = make_spec()
    return spec, repro.generate(
        spec.build_platform(), budget=spec.budget, warmup=spec.warmup,
        train_epochs=spec.train_epochs, seed=spec.seed,
    )


class TestReportCarriesWinnerPipeline:
    def test_serial_generate_pipeline_matches_fresh_rebuild(self, serial_report):
        spec, report = serial_report
        best = report.best
        assert best.pipeline is not None
        fresh, dataset = fresh_pipeline(spec, best)
        assert_same_pipeline(best.pipeline, fresh, dataset)

    def test_sharded_pipeline_matches_fresh_rebuild(self, serial_report):
        spec, serial = serial_report
        out = run_sharded(spec, shards=2, launcher=InProcessLauncher())
        best = out.report.best
        assert best.best_config == serial.best.best_config
        fresh, dataset = fresh_pipeline(spec, best)
        assert_same_pipeline(best.pipeline, fresh, dataset)

    def test_pipeline_stays_out_of_exports_and_repr(self, serial_report, tmp_path):
        _, report = serial_report
        best = report.best
        assert "pipeline" not in report_to_dict(report)["models"]["ad"]
        with open(export_report(report, str(tmp_path))) as handle:
            assert "pipeline" not in json.load(handle)["models"]["ad"]
        assert "pipeline=" not in repr(best)

    def test_pipeline_ignored_by_equality(self, serial_report):
        _, report = serial_report
        best = report.best
        twin = type(best)(**{**best.__dict__, "pipeline": None})
        assert twin == best
