"""The hard constraint: observability NEVER changes results.

The matrix crosses {serial, sharded} x {REPRO_OBS off, REPRO_OBS on}
and asserts search histories, winners, and serving counters are
bit-identical — spans and counters ride alongside the computation and
must not touch RNG state, ordering, or outputs.  The traced sharded run
additionally checks the acceptance criterion for the merged obs
payload: one ``distrib.unit`` span per planned unit, a merged metrics
snapshot that says so too, and a Chrome trace export that validates.
"""

import os

import numpy as np
import pytest

import repro
from repro.distrib import DatasetRef, ModelEntry, RunSpec, run_sharded
from repro.obs.trace import reset_tracer, to_chrome_trace, validate_chrome_trace


def make_spec():
    return RunSpec(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=150, n_test=60,
                                           seed=11),
                algorithms=("decision_tree", "svm"),
            )
        ],
        budget=3,
        warmup=2,
        train_epochs=3,
        seed=0,
    )


def serial_histories(report):
    return {
        algorithm: [
            (tuple(sorted(e.config.items())), round(e.objective, 12))
            for e in result.history
        ]
        for algorithm, result in report.models["tc"].candidate_results.items()
    }


def sharded_fingerprint(out):
    best = out.report.best
    histories = {}
    for shard in out.shard_results:
        for unit in shard.units:
            key = (unit.model_index, unit.family_index, unit.start)
            histories[key] = [
                (tuple(sorted(e.config.items())), round(e.objective, 12))
                for e in unit.history
            ]
    return (best.algorithm, tuple(sorted(best.best_config.items())),
            best.objective, histories)


@pytest.fixture
def obs_off(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    reset_tracer()
    yield
    reset_tracer()


@pytest.fixture
def obs_on(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    reset_tracer()
    yield
    reset_tracer()


class TestSearchBitIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Serial untraced run — the reference everything must match."""
        saved = os.environ.pop("REPRO_OBS", None)
        reset_tracer()
        try:
            spec = make_spec()
            report = repro.generate(
                spec.build_platform(), budget=spec.budget, warmup=spec.warmup,
                train_epochs=spec.train_epochs, seed=spec.seed,
            )
        finally:
            if saved is not None:
                os.environ["REPRO_OBS"] = saved
            reset_tracer()
        return serial_histories(report), report.best

    def test_serial_traced_matches(self, baseline, obs_on):
        spec = make_spec()
        report = repro.generate(
            spec.build_platform(), budget=spec.budget, warmup=spec.warmup,
            train_epochs=spec.train_epochs, seed=spec.seed,
        )
        ref_histories, ref_best = baseline
        assert serial_histories(report) == ref_histories
        assert report.best.best_config == ref_best.best_config
        assert report.best.objective == ref_best.objective

    def test_sharded_untraced_matches(self, baseline, obs_off):
        out = run_sharded(make_spec(), shards=2)
        algorithm, config, objective, _ = sharded_fingerprint(out)
        _, ref_best = baseline
        assert algorithm == ref_best.algorithm
        assert config == tuple(sorted(ref_best.best_config.items()))
        assert objective == ref_best.objective
        # Tracing off: the merged report carries no obs payload at all.
        assert out.obs.get("spans", []) == []

    def test_sharded_traced_matches_and_counts_spans(self, baseline, obs_on):
        out = run_sharded(make_spec(), shards=2)
        algorithm, config, objective, _ = sharded_fingerprint(out)
        _, ref_best = baseline
        assert algorithm == ref_best.algorithm
        assert config == tuple(sorted(ref_best.best_config.items()))
        assert objective == ref_best.objective

        planned_units = sum(len(s.units) for s in out.shard_results)
        assert planned_units > 0
        unit_spans = [e for e in out.obs["spans"]
                      if e["name"] == "distrib.unit"]
        # Acceptance criterion: one unit span per planned unit...
        assert len(unit_spans) == planned_units
        # ...and the merged metrics snapshot agrees.
        samples = out.obs["metrics"]["repro_spans_total"]["samples"]
        assert samples['[["name", "distrib.unit"]]'] == planned_units

        # The fleet-wide timeline spans all shards and nests sanely.
        timeline = out.obs["timeline"]
        assert {lane["shard"] for lane in timeline["shards"]} == {0, 1}
        assert timeline["critical_path_s"] <= timeline["wall_s"] + 1e-6

        # The pooled spans export to a valid Chrome trace.
        doc = to_chrome_trace(out.obs["spans"])
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) == len(out.obs["spans"])


class TestServingBitIdentity:
    def _run(self, pipeline, packets, labels):
        from repro.runtime import FlowmarkerTracker
        from repro.serving import AsyncStreamEngine

        engine = AsyncStreamEngine(
            pipeline, FlowmarkerTracker(max_conversations=512),
            batch_size=16, drop_policy="block",
        )
        out = engine.process(packets, labels)
        return np.asarray(out), engine.stats

    def test_counters_and_outputs_identical(self, bd_pipeline_and_stream,
                                            monkeypatch, tmp_path):
        pipeline, packets, labels = bd_pipeline_and_stream
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_tracer()
        out_off, stats_off = self._run(pipeline, packets, labels)
        monkeypatch.setenv("REPRO_OBS", "1")
        reset_tracer()
        out_on, stats_on = self._run(pipeline, packets, labels)
        reset_tracer()
        assert np.array_equal(out_off, out_on)
        assert stats_off.counters() == stats_on.counters()
