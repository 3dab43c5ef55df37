"""``repro.scenario``: the one train-and-serve setup behind every
serving entry point."""

import numpy as np
import pytest

from repro.datasets import load_botnet
from repro.datasets.botnet import flow_label, generate_botnet_flows
from repro.distrib.runspec import APP_SPECS
from repro.fabric.deploy import extractor_for
from repro.errors import FabricError
from repro.netsim import interleave_flows
from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor
from repro.scenario import botnet_trace, serving_extractor, serving_pipeline


def test_extractor_per_app():
    assert isinstance(serving_extractor("bd"), FlowmarkerTracker)
    assert serving_extractor("bd").max_conversations == 4096
    for app in ("ad", "tc"):
        assert isinstance(serving_extractor(app), PacketFeatureExtractor)
    # The fabric keeps rejecting what a packet stream cannot feed.
    assert isinstance(extractor_for("bd"), FlowmarkerTracker)
    with pytest.raises(FabricError):
        extractor_for("ad")


def test_trace_matches_the_flow_generator():
    packets, labels = botnet_trace(12, seed=5)
    want_packets, want_labels = interleave_flows(
        generate_botnet_flows(12, seed=5), flow_label)
    assert packets == want_packets and labels == want_labels
    assert botnet_trace(12, seed=5, labeled=False) == (want_packets, None)


def test_pipeline_keeps_data_and_train_seeds_apart():
    pipeline, dataset = serving_pipeline("bd", 2, n_train_flows=20)
    want = load_botnet(n_train_flows=20, n_test_flows=2,
                       seed=2 + APP_SPECS["bd"].seed_offset,
                       per_packet_test=False)
    assert np.array_equal(dataset.train_x, want.train_x)
    assert sorted(pipeline.sources) == ["bd.scala"]
    same, _ = serving_pipeline("bd", 2, n_train_flows=20)
    other_train, _ = serving_pipeline("bd", 3, data_seed=15, n_train_flows=20,
                                      name="bd-v1")
    assert np.array_equal(pipeline.predict(want.train_x),
                          same.predict(want.train_x))
    assert sorted(other_train.sources) == ["bd-v1.scala"]
    assert other_train.sources["bd-v1.scala"] != pipeline.sources["bd.scala"]


def test_unknown_app_rejected():
    with pytest.raises(ValueError):
        serving_pipeline("xx")
