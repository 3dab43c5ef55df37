"""Adaptation deploys the merged winner without training it again."""

import pytest

from repro.core.evaluator import ModelEvaluator
from repro.distrib.driver import run_sharded
from repro.distrib.launchers import InProcessLauncher
from repro.drift import TrafficCapture, rebuild_winner
from repro.drift.scenario import PHASE_SHIFTED, adaptation_spec_factory, phase_trace
from repro.errors import AdaptationError
from repro.netsim.features import PACKET_FEATURE_NAMES, packet_features

SEED = 13


def _spec(tmp_path):
    packets, labels = phase_trace(30, PHASE_SHIFTED, seed=SEED)
    capture = TrafficCapture(capacity=4096, feature_names=PACKET_FEATURE_NAMES)
    rows = [packet_features(p) for p in packets]
    capture.observe_batch(rows, labels, [0] * len(rows),
                          times=[p.timestamp for p in packets])
    ref = capture.snapshot(str(tmp_path / "cap.npz"))
    return adaptation_spec_factory(budget=2, seed=SEED, train_epochs=4)(ref)


class TestRebuildWinner:
    def test_one_retrain_trains_the_winner_once(self, tmp_path, monkeypatch):
        calls = []
        original = ModelEvaluator.rebuild

        def counting(self, config):
            calls.append(dict(config))
            return original(self, config)

        monkeypatch.setattr(ModelEvaluator, "rebuild", counting)
        spec = _spec(tmp_path)
        out = run_sharded(spec, shards=2, launcher=InProcessLauncher(),
                          shard_dir=str(tmp_path / "shards"))
        pipeline, best = rebuild_winner(spec, out)
        assert len(calls) == 1
        assert pipeline is best.pipeline
        assert calls[0] == best.best_config

    def test_infeasible_report_raises(self, tmp_path):
        spec = _spec(tmp_path)
        out = run_sharded(spec, shards=1, launcher=InProcessLauncher(),
                          shard_dir=str(tmp_path / "shards"))
        out.report.feasible = False
        with pytest.raises(AdaptationError):
            rebuild_winner(spec, out)
