"""Tests for the Dataset container and the three synthetic datasets."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    generate_botnet_flows,
    load_botnet,
    load_iot,
    load_nslkdd,
)
from repro.datasets.botnet import (
    BENIGN_PROFILES,
    BOTNET_PROFILES,
    flow_label,
    marker_dataset,
    partial_marker_dataset,
)
from repro.errors import DatasetError
from repro.netsim.flow import Flow
from repro.netsim.packet import Packet


class TestDatasetContainer:
    def _tiny(self):
        return Dataset(
            train_x=np.arange(12.0).reshape(6, 2),
            train_y=np.array([0, 1, 0, 1, 0, 1]),
            test_x=np.arange(8.0).reshape(4, 2),
            test_y=np.array([0, 1, 0, 1]),
            feature_names=("a", "b"),
            name="tiny",
        )

    def test_basic_properties(self):
        ds = self._tiny()
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert ds.n_train == 6 and ds.n_test == 4

    def test_loader_dict_round_trip(self):
        ds = self._tiny()
        loaded = {"data": {"train": ds.train_x, "test": ds.test_x},
                  "labels": {"train": ds.train_y, "test": ds.test_y}}
        rebuilt = Dataset.from_loader_dict(loaded, name="tiny")
        assert np.array_equal(rebuilt.train_x, ds.train_x)
        assert np.array_equal(rebuilt.test_y, ds.test_y)

    def test_malformed_loader_dict_raises(self):
        with pytest.raises(DatasetError):
            Dataset.from_loader_dict({"data": {}})

    def test_shape_validation(self):
        with pytest.raises(DatasetError):
            Dataset(
                train_x=np.ones((3, 2)), train_y=np.ones(2),
                test_x=np.ones((2, 2)), test_y=np.ones(2),
            )
        with pytest.raises(DatasetError):
            Dataset(
                train_x=np.ones((3, 2)), train_y=np.ones(3),
                test_x=np.ones((2, 3)), test_y=np.ones(2),
            )

    def test_feature_name_count_validated(self):
        with pytest.raises(DatasetError):
            Dataset(
                train_x=np.ones((3, 2)), train_y=np.ones(3),
                test_x=np.ones((2, 2)), test_y=np.ones(2),
                feature_names=("only_one",),
            )

    def test_subset_features(self):
        ds = self._tiny()
        sub = ds.subset_features([1])
        assert sub.n_features == 1
        assert sub.feature_names == ("b",)
        assert np.array_equal(sub.train_x[:, 0], ds.train_x[:, 1])

    def test_subset_empty_raises(self):
        with pytest.raises(DatasetError):
            self._tiny().subset_features([])

    def test_split_half_partitions_train(self):
        ds = self._tiny()
        a, b = ds.split_half(seed=0)
        assert a.n_train + b.n_train == ds.n_train
        assert a.n_test == ds.n_test  # both halves keep the full test set
        merged = np.sort(np.concatenate([a.train_x[:, 0], b.train_x[:, 0]]))
        assert np.array_equal(merged, np.sort(ds.train_x[:, 0]))


class TestNslKdd:
    def test_shapes_and_features(self):
        ds = load_nslkdd(n_train=300, n_test=100, seed=0)
        assert ds.train_x.shape == (300, 7)
        assert ds.test_x.shape == (100, 7)
        assert ds.n_classes == 2

    def test_deterministic(self):
        a = load_nslkdd(n_train=100, n_test=50, seed=3)
        b = load_nslkdd(n_train=100, n_test=50, seed=3)
        assert np.array_equal(a.train_x, b.train_x)

    def test_class_balance_near_requested(self):
        ds = load_nslkdd(n_train=1000, n_test=200, malicious_fraction=0.4,
                         label_noise=0.0, seed=1)
        assert abs(np.mean(ds.train_y) - 0.4) < 0.05

    def test_label_noise_caps_separability(self):
        clean = load_nslkdd(n_train=600, n_test=200, label_noise=0.0, seed=2)
        noisy = load_nslkdd(n_train=600, n_test=200, label_noise=0.2, seed=2)
        # Same features, different labels due to flips.
        assert not np.array_equal(clean.train_y, noisy.train_y)

    def test_invalid_params(self):
        with pytest.raises(DatasetError):
            load_nslkdd(malicious_fraction=0.0)
        with pytest.raises(DatasetError):
            load_nslkdd(label_noise=0.7)

    def test_learnable(self, ad_dataset):
        # A linear model should already beat chance on the synthetic task.
        from repro.ml import LinearSVM, StandardScaler, f1_score

        scaler = StandardScaler().fit(ad_dataset.train_x)
        svm = LinearSVM(seed=0, epochs=20).fit(
            scaler.transform(ad_dataset.train_x), ad_dataset.train_y
        )
        f1 = f1_score(ad_dataset.test_y, svm.predict(scaler.transform(ad_dataset.test_x)))
        assert f1 > 0.6


class TestIot:
    def test_shapes_and_classes(self):
        ds = load_iot(n_train=400, n_test=150, seed=0)
        assert ds.train_x.shape == (400, 7)
        assert ds.n_classes == 5

    def test_deterministic(self):
        a = load_iot(n_train=200, n_test=50, seed=4)
        b = load_iot(n_train=200, n_test=50, seed=4)
        assert np.array_equal(a.train_x, b.train_x)

    def test_all_classes_present(self):
        ds = load_iot(n_train=500, n_test=200, seed=5)
        assert set(np.unique(ds.train_y)) == {0, 1, 2, 3, 4}

    def test_too_small_raises(self):
        with pytest.raises(DatasetError):
            load_iot(n_train=2, n_test=2)


class TestBotnet:
    def test_flow_labels(self):
        flows = generate_botnet_flows(40, seed=0)
        names = {f.label for f in flows}
        known = {p.name for p in BOTNET_PROFILES} | {p.name for p in BENIGN_PROFILES}
        assert names <= known

    def test_flow_label_mapping(self):
        flows = generate_botnet_flows(40, seed=1)
        for flow in flows:
            assert flow_label(flow) in (0, 1)

    def test_unknown_label_raises(self):
        flow = Flow(
            [Packet(timestamp=0.0, size=100, src_ip=1, dst_ip=2,
                    src_port=1, dst_port=2)],
            label="mystery",
        )
        with pytest.raises(DatasetError):
            flow_label(flow)

    def test_marker_dataset_shapes(self):
        flows = generate_botnet_flows(30, seed=2)
        X, y = marker_dataset(flows)
        assert X.shape == (30, 30)
        assert set(np.unique(y)) <= {0, 1}

    def test_partial_dataset_positions(self):
        flows = generate_botnet_flows(10, seed=3)
        X, y, pos = partial_marker_dataset(flows, max_packets=5)
        assert pos.max() <= 5
        assert X.shape[0] == y.shape[0] == pos.shape[0]

    def test_load_botnet_per_packet_vs_flow(self):
        per_packet = load_botnet(n_train_flows=30, n_test_flows=10, seed=4)
        flow_level = load_botnet(n_train_flows=30, n_test_flows=10, seed=4,
                                 per_packet_test=False)
        assert per_packet.test_x.shape[0] > flow_level.test_x.shape[0]
        assert per_packet.train_x.shape == flow_level.train_x.shape

    def test_botnet_fraction_bounds(self):
        with pytest.raises(DatasetError):
            generate_botnet_flows(10, botnet_fraction=1.5)

    def test_histograms_separate_classes(self, bd_dataset):
        # Average markers of the two classes must differ substantially in
        # at least a few bins — the property Figure 6 relies on.
        X, y = bd_dataset.train_x, bd_dataset.train_y
        gap = np.abs(X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0))
        assert (gap > 0.5).sum() >= 3


class TestCsvLoaders:
    def test_round_trip(self, tmp_path):
        from repro.datasets import load_csv_dataset, save_csv_dataset

        ds = load_nslkdd(n_train=50, n_test=20, seed=0)
        train_path, test_path = save_csv_dataset(ds, str(tmp_path), prefix="ad")
        rebuilt = load_csv_dataset(train_path, test_path, name="ad")
        assert np.allclose(rebuilt.train_x, ds.train_x, atol=1e-6)
        assert np.array_equal(rebuilt.train_y, ds.train_y)
        assert rebuilt.feature_names == ds.feature_names

    def test_missing_file_raises(self, tmp_path):
        from repro.datasets import load_csv_dataset

        with pytest.raises(DatasetError):
            load_csv_dataset(str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv"))
