"""Deploying a plan: extractor matching, rebuilds, gated rollout."""

import pytest

from repro.datasets.botnet import generate_botnet_flows
from repro.errors import FabricError
from repro.fabric import (
    FabricPlan,
    deploy_plan,
    extractor_for,
    plan_fabric,
    rebuild_plan_pipelines,
)
from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor


class TestExtractorFor:
    def test_bd_gets_the_stateful_flow_tracker(self):
        assert isinstance(extractor_for("bd"), FlowmarkerTracker)

    def test_tc_gets_per_packet_features(self):
        assert isinstance(extractor_for("tc"), PacketFeatureExtractor)

    def test_ad_is_not_packet_servable(self):
        with pytest.raises(FabricError, match="not packet-servable"):
            extractor_for("ad")


@pytest.fixture(scope="module")
def plan(leaf_spec):
    return plan_fabric(leaf_spec)


@pytest.fixture(scope="module")
def packets():
    flows = generate_botnet_flows(30, seed=1234)
    return sorted((p for f in flows for p in f), key=lambda p: p.timestamp)


class TestRebuild:
    def test_one_pipeline_per_tier_app(self, plan):
        pipelines = rebuild_plan_pipelines(plan)
        assert set(pipelines) == {"leaf:tc"}
        assert hasattr(pipelines["leaf:tc"], "predict")

    def test_rebuild_is_deterministic(self, plan, leaf_spec):
        import numpy as np

        dataset = leaf_spec.apps[0].dataset.materialize()
        first = rebuild_plan_pipelines(plan)["leaf:tc"]
        second = rebuild_plan_pipelines(plan)["leaf:tc"]
        preds_a = first.predict(dataset.test_x)
        preds_b = second.predict(dataset.test_x)
        assert np.array_equal(preds_a, preds_b)


class TestDeployPlan:
    def test_empty_trace_rejected(self, plan):
        with pytest.raises(FabricError, match="packet trace"):
            deploy_plan(plan, [])

    @pytest.mark.parametrize("rate", [0.0, -100.0])
    def test_nonpositive_rate_rejected_before_any_worker(
        self, plan, packets, monkeypatch, rate
    ):
        import repro.fabric.deploy as deploy

        def no_workers(_plan):
            raise AssertionError("deploy_plan rebuilt pipelines for workers")

        monkeypatch.setattr(deploy, "rebuild_plan_pipelines", no_workers)
        with pytest.raises(FabricError, match="rate must be > 0"):
            deploy_plan(plan, packets, rate=rate)

    def test_rollout_upgrades_every_worker_losslessly(self, plan, packets):
        report = deploy_plan(plan, packets, rate=6000.0)
        assert report["ok"], report["tiers"]
        assert report["dropped"] == 0
        assert report["conserved"]
        assert set(report["workers"]) == {"leaf0:tc", "leaf1:tc"}
        for doc in report["workers"].values():
            assert doc["version"] == "plan-leaf-tc"
            assert doc["swaps"] == 1
            assert doc["packets"] > 0

    def test_unservable_app_in_plan_fails_loudly(self, plan):
        # An 'ad' placement cannot be rebuilt into a packet pipeline.
        doctored = FabricPlan.from_dict(plan.to_dict())
        doctored.devices[0]["app"] = "ad"
        with pytest.raises((FabricError, KeyError)):
            deploy_plan(doctored, [object()])
