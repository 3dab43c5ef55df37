"""``cli obs`` verbs, ``trace2chrome``, and flush-on-signal teardown."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main, obs_main
from repro.obs.trace import Tracer

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


@pytest.fixture
def recorded_dir(tmp_path, monkeypatch):
    """An obs dir holding a trace sink and a metrics snapshot."""
    directory = tmp_path / "obs"
    directory.mkdir()
    tracer = Tracer(sink_path=str(directory / "trace.jsonl"))
    with tracer.span("distrib.unit", shard=0):
        with tracer.span("bo.eval"):
            pass
    with tracer.span("serving.infer", rows=16):
        pass
    tracer.close()
    (directory / "metrics.json").write_text(json.dumps({
        "repro_spans_total": {
            "kind": "counter", "help": "spans", "labels": ["name"],
            "samples": {'[["name", "distrib.unit"]]': 1.0},
        },
        "lat_seconds": {
            "kind": "histogram", "help": "", "labels": [],
            "samples": {"[]": {"buckets": [["+Inf", 2]],
                               "sum": 0.5, "count": 2}},
        },
    }))
    monkeypatch.setenv("REPRO_OBS_DIR", str(directory))
    return directory


class TestVerbs:
    def test_summary(self, recorded_dir, capsys):
        assert obs_main(["summary", "--dir", str(recorded_dir)]) == 0
        out = capsys.readouterr().out
        assert "repro_spans_total{name=distrib.unit} = 1.0" in out
        assert "count=2 sum=0.5" in out
        assert "3 events" in out
        assert "distrib.unit x 1" in out

    def test_summary_empty_dir_fails(self, tmp_path, capsys):
        assert obs_main(["summary", "--dir", str(tmp_path / "nope")]) == 1
        assert "REPRO_OBS=1" in capsys.readouterr().err

    def test_tail(self, recorded_dir, capsys):
        assert obs_main(["tail", "--dir", str(recorded_dir), "-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "serving.infer" in lines[-1] and "rows=16" in lines[-1]

    def test_tail_without_trace_fails(self, tmp_path, capsys):
        assert obs_main(["tail", "--dir", str(tmp_path)]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_export_writes_valid_chrome_trace(self, recorded_dir, capsys):
        out_path = recorded_dir / "trace.json"
        assert obs_main(["export", "--dir", str(recorded_dir)]) == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["traceEvents"]) == 3
        assert all(event["ph"] == "X" for event in doc["traceEvents"])

    def test_export_missing_input_fails(self, tmp_path, capsys):
        code = obs_main(["export", "--dir", str(tmp_path),
                         "--input", str(tmp_path / "missing.jsonl")])
        assert code == 1

    def test_unknown_verb_rejected(self, capsys):
        assert obs_main(["frobnicate"]) == 2
        assert obs_main([]) == 2

    def test_main_dispatches_obs(self, recorded_dir, capsys):
        assert main(["obs", "summary", "--dir", str(recorded_dir)]) == 0
        assert "distrib.unit" in capsys.readouterr().out


class TestTrace2Chrome:
    def test_export_then_check_round_trip(self, recorded_dir, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = tmp_path / "chrome.json"
        tool = os.path.join(REPO, "tools", "trace2chrome.py")
        exported = subprocess.run(
            [sys.executable, tool, str(recorded_dir / "trace.jsonl"),
             "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert exported.returncode == 0, exported.stderr
        checked = subprocess.run(
            [sys.executable, tool, "--check", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert checked.returncode == 0, checked.stderr
        assert "ok (3 events)" in checked.stdout


class TestFlushOnSignal:
    def test_sigterm_flushes_obs_artifacts(self, tmp_path):
        """A served process killed with SIGTERM leaves its snapshot behind."""
        obs_dir = tmp_path / "obs"
        script = textwrap.dedent("""
            import time

            from repro.cli import _install_obs_flush
            from repro.obs import get_registry, get_tracer

            _install_obs_flush()
            get_registry().counter("repro_child_total", "help").inc(3)
            with get_tracer().span("child.work"):
                pass
            print("READY", flush=True)
            time.sleep(60)
        """)
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_OBS="1",
                   REPRO_OBS_DIR=str(obs_dir))
        child = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert child.stdout.readline().strip() == "READY"
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        # SystemExit(128 + SIGTERM) preserves the conventional exit code.
        assert child.returncode == 143, child.stderr.read()
        snapshot = json.loads((obs_dir / "metrics.json").read_text())
        assert snapshot["repro_child_total"]["samples"]["[]"] == 3
        sink = (obs_dir / "trace.jsonl").read_text().splitlines()
        assert any(json.loads(line)["name"] == "child.work" for line in sink)


class TestTailCount:
    def test_tail_zero_prints_nothing(self, recorded_dir, capsys):
        assert obs_main(["tail", "--dir", str(recorded_dir), "-n", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_tail_negative_rejected(self, recorded_dir, capsys):
        assert obs_main(["tail", "--dir", str(recorded_dir), "-n", "-1"]) == 2
        assert "error: -n must be >= 0" in capsys.readouterr().err

    def test_tail_more_than_recorded_prints_all(self, recorded_dir, capsys):
        assert obs_main(["tail", "--dir", str(recorded_dir), "-n", "50"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
