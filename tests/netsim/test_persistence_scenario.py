"""Tests for binary trace persistence."""

import pytest

from repro.datasets.botnet import generate_botnet_flows
from repro.errors import DatasetError
from repro.netsim.persistence import read_trace, write_trace


class TestTracePersistence:
    def test_round_trip_packet_counts(self, tmp_path):
        flows = generate_botnet_flows(20, seed=0)
        path = str(tmp_path / "trace.bin")
        written = write_trace(path, flows)
        assert written == sum(len(f) for f in flows)
        loaded = read_trace(path)
        assert sum(len(f) for f in loaded) == written

    def test_round_trip_preserves_fields(self, tmp_path):
        flows = generate_botnet_flows(10, seed=1)
        path = str(tmp_path / "trace.bin")
        write_trace(path, flows)
        loaded = read_trace(path)
        original = {
            (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.size)
            for f in flows
            for p in f
        }
        reloaded = {
            (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.size)
            for f in loaded
            for p in f
        }
        assert original == reloaded

    def test_labels_survive(self, tmp_path):
        flows = generate_botnet_flows(15, seed=2)
        path = str(tmp_path / "trace.bin")
        write_trace(path, flows)
        loaded = read_trace(path)
        labels = {f.label for f in loaded if f.label is not None}
        assert labels <= {"storm", "waledac", "utorrent", "vuze", "emule", "frostwire"}
        assert labels  # at least some labels survive

    def test_flows_time_ordered(self, tmp_path):
        flows = generate_botnet_flows(10, seed=3)
        path = str(tmp_path / "trace.bin")
        write_trace(path, flows)
        for flow in read_trace(path):
            ts = [p.timestamp for p in flow]
            assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(DatasetError):
            read_trace(str(path))

    def test_truncated_rejected(self, tmp_path):
        flows = generate_botnet_flows(5, seed=4)
        path = str(tmp_path / "trace.bin")
        write_trace(path, flows)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(DatasetError):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_trace(str(tmp_path / "nope.bin"))
