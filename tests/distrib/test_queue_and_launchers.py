"""Work-queue protocol and launcher behaviour tests.

The queue's two primitives (atomic post, atomic claim) carry all the
multi-machine coordination, so they get direct adversarial tests; the
launchers get contract tests (results in shard order, failures
surfaced as DistributionError)."""

import json
import os
import threading

import pytest

from repro.distrib import (
    DatasetRef,
    ModelEntry,
    RunSpec,
    SubprocessLauncher,
    TaskFailure,
    WorkQueue,
    WorkQueueLauncher,
    make_launcher,
    plan_tasks,
    plan_units,
)
from repro.distrib.worker import drain, main as worker_main, reap
from repro.errors import DistributionError


def tiny_spec(**overrides):
    base = dict(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=60, n_test=30, seed=11),
                algorithms=("decision_tree",),
            )
        ],
        budget=2,
        warmup=1,
        train_epochs=3,
        seed=0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestWorkQueue:
    def test_post_then_claim_roundtrip(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t1", {"value": 42})
        assert queue.pending() == ["t1"]
        name, payload = queue.claim()
        assert (name, payload) == ("t1", {"value": 42})
        assert queue.pending() == []
        assert queue.claimed() == ["t1"]

    def test_claim_is_exclusive_under_racing_workers(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        for i in range(6):
            queue.post(f"t{i}", {"i": i})
        wins: list = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            while True:
                claim = queue.claim()
                if claim is None:
                    return
                wins.append(claim[0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(wins) == [f"t{i}" for i in range(6)]
        assert len(wins) == len(set(wins))  # no task claimed twice

    def test_complete_releases_claim_and_publishes(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        name, _ = queue.claim()
        queue.complete(name, {"done": True})
        assert queue.claimed() == []
        assert queue.result_for("t") == {"done": True}

    def test_fail_records_error_and_task(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        name, _ = queue.claim()
        queue.fail(name, "boom")
        failure = queue.failure_for("t")
        assert failure["error"] == "boom"
        assert failure["task"] == {"x": 1}
        assert queue.claimed() == []

    def test_wait_names_raises_on_failure(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        name, _ = queue.claim()
        queue.fail(name, "kaput")
        with pytest.raises(DistributionError, match="kaput"):
            queue.wait_names(["t"], timeout=1)

    def test_wait_names_times_out(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        with pytest.raises(DistributionError, match="timed out"):
            queue.wait_names(["t"], timeout=0.2, poll=0.05)

    def test_requeue_stale(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        assert queue.requeue_stale("t") is True
        assert queue.pending() == ["t"]
        assert queue.requeue_stale("missing") is False

    def test_posts_are_atomic_no_partial_reads(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        payload = {"blob": "x" * 200_000}
        stop = threading.Event()
        errors: list = []

        def poster():
            while not stop.is_set():
                queue.post("big", payload)

        thread = threading.Thread(target=poster)
        thread.start()
        try:
            for _ in range(50):
                path = os.path.join(str(tmp_path), "tasks", "big.json")
                if os.path.exists(path):
                    try:
                        with open(path) as handle:
                            json.load(handle)
                    except json.JSONDecodeError as exc:  # pragma: no cover
                        errors.append(exc)
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestReap:
    """The standalone reaper: external-only fleets must survive the
    driver host (and its in-process ReaperThread) dying."""

    def backdate_claim(self, queue_dir, name, age_s=3600.0):
        path = os.path.join(str(queue_dir), "claimed", f"{name}.json")
        past = os.path.getmtime(path) - age_s
        os.utime(path, (past, past))

    def test_reap_requeues_stale_claim(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        self.backdate_claim(tmp_path, "t")
        seen: list = []
        assert reap(str(tmp_path), stale_after=60.0, once=True,
                    on_reap=seen.append) == 1
        assert seen == ["t"]
        assert queue.claimed() == []
        assert queue.pending() == ["t"]
        # A surviving drainer can now pick the task back up.
        assert queue.claim() == ("t", {"x": 1})

    def test_reap_spares_fresh_claims(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("fresh", {"x": 1})
        queue.post("stale", {"x": 2})
        queue.claim()
        queue.claim()
        self.backdate_claim(tmp_path, "stale")
        assert reap(str(tmp_path), stale_after=60.0, once=True) == 1
        assert queue.claimed() == ["fresh"]
        assert queue.pending() == ["stale"]

    def test_reap_rejects_nonpositive_stale_after(self, tmp_path):
        with pytest.raises(DistributionError, match="stale_after"):
            reap(str(tmp_path), stale_after=0.0, once=True)

    def test_reap_loop_honours_stop(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        self.backdate_claim(tmp_path, "t")
        rounds: list = []

        def stop():
            rounds.append(True)
            return len(rounds) >= 2

        assert reap(str(tmp_path), stale_after=60.0, poll=0.01,
                    stop=stop) == 1
        assert len(rounds) == 2

    def test_worker_main_reap_mode(self, tmp_path, capsys):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        self.backdate_claim(tmp_path, "t")
        assert worker_main(["--reap", str(tmp_path), "--stale-after", "30",
                            "--once"]) == 0
        out = capsys.readouterr().out
        assert "requeued stale claim: t" in out
        assert "reaped 1 stale claim(s)" in out
        assert queue.pending() == ["t"]

    def test_worker_main_reap_rejects_bad_stale_after(self, tmp_path, capsys):
        assert worker_main(["--reap", str(tmp_path), "--stale-after", "-1",
                            "--once"]) == 2
        assert "--stale-after" in capsys.readouterr().err


class TestClockSkew:
    """Staleness is judged on the queue filesystem's clock, never the
    local wall clock — a driver whose clock runs an hour ahead of the
    shared filesystem must not reap every healthy worker's claim."""

    def test_skewed_local_clock_spares_fresh_claims(self, tmp_path,
                                                    monkeypatch):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()   # heartbeat mtime stamped by the filesystem
        import time as real_time
        skewed = real_time.time() + 3600.0
        monkeypatch.setattr("repro.distrib.queuedir.time",
                            type("T", (), {"time": staticmethod(
                                lambda: skewed)}))
        # fs_now() reads the probe file's mtime — the same clock that
        # stamped the heartbeat — so the hour of skew cancels out.
        assert queue.stale_claims(60.0) == []

    def test_actually_stale_claims_still_reaped_under_skew(self, tmp_path,
                                                           monkeypatch):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        path = os.path.join(str(tmp_path), "claimed", "t.json")
        past = os.path.getmtime(path) - 3600.0
        os.utime(path, (past, past))
        import time as real_time
        skewed = real_time.time() - 7200.0   # local clock two hours behind
        monkeypatch.setattr("repro.distrib.queuedir.time",
                            type("T", (), {"time": staticmethod(
                                lambda: skewed)}))
        assert queue.stale_claims(60.0) == ["t"]

    def test_reclaim_resets_heartbeat_mtime(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        path = os.path.join(str(tmp_path), "claimed", "t.json")
        past = os.path.getmtime(path) - 3600.0
        os.utime(path, (past, past))
        assert reap(str(tmp_path), stale_after=60.0, once=True) == 1
        # os.rename preserves the stale source mtime; claim() must
        # re-stamp it or the reaper eats the task straight back.
        assert queue.claim() == ("t", {"x": 1})
        assert queue.stale_claims(60.0) == []

    def test_fs_now_tracks_filesystem_clock(self, tmp_path):
        import time as real_time
        queue = WorkQueue(str(tmp_path))
        before = real_time.time()
        now = queue.fs_now()
        # tmp_path is a local filesystem: its clock IS the wall clock
        # (modulo mtime granularity).
        assert abs(now - before) < 5.0

    def test_fs_now_falls_back_when_probe_unwritable(self, tmp_path):
        import time as real_time
        queue = WorkQueue(str(tmp_path))
        queue.root = "/proc"   # unwritable even for root
        now = queue.fs_now()
        assert abs(now - real_time.time()) < 5.0


class TestDrain:
    def test_drain_executes_posted_shards_and_exits_when_empty(self, tmp_path):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        queue = WorkQueue(str(tmp_path))
        queue.post("shard-0000", {"run": spec.to_dict(),
                                  "shard": shards[0].to_dict(),
                                  "spill_dir": None})
        completed = drain(str(tmp_path))
        assert completed == 1
        result = queue.result_for("shard-0000")
        assert result["index"] == 0
        assert len(result["units"][0]["history"]) == spec.budget

    def test_drain_records_failures_and_continues(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("bad", {"run": {"broken": True}, "shard": {}})
        completed = drain(str(tmp_path))
        assert completed == 0
        assert queue.failure_for("bad") is not None

    def test_worker_main_task_mode(self, tmp_path):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        task = tmp_path / "task.json"
        out = tmp_path / "out.json"
        task.write_text(json.dumps({
            "run": spec.to_dict(), "shard": shards[0].to_dict(),
            "spill_dir": None,
        }))
        assert worker_main(["--task", str(task), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_shards"] == 1

    def test_worker_main_task_requires_out(self, capsys):
        assert worker_main(["--task", "x.json"]) == 2
        assert "--out" in capsys.readouterr().err


class TestLaunchers:
    def test_make_launcher_registry(self):
        assert make_launcher("inprocess").name == "inprocess"
        assert make_launcher("subprocess").name == "subprocess"
        assert make_launcher("workqueue", mode="thread").name == "workqueue"
        with pytest.raises(DistributionError):
            make_launcher("teleporter")

    def test_subprocess_launcher_requires_shard_dir(self):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        with pytest.raises(DistributionError):
            SubprocessLauncher().launch(spec, shards, None)

    def test_subprocess_launcher_reports_worker_crash_as_failure(self, tmp_path):
        # An npz ref pointing nowhere: the worker exits non-zero and the
        # launcher must hand back a TaskFailure outcome (with the
        # worker's stderr) instead of raising away surviving results.
        spec = tiny_spec()
        good_shards = plan_tasks(plan_units(spec), 1)
        spec.models[0].dataset = DatasetRef.for_npz(str(tmp_path / "gone.npz"))
        outcomes = SubprocessLauncher(timeout=120).launch(
            spec, good_shards, str(tmp_path)
        )
        assert len(outcomes) == 1
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 0
        assert failure.attempt == 0
        assert "gone.npz" in failure.error

    def test_workqueue_launcher_requires_shard_dir(self):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        with pytest.raises(DistributionError):
            WorkQueueLauncher(mode="thread").launch(spec, shards, None)

    def test_workqueue_launcher_validation(self):
        with pytest.raises(DistributionError):
            WorkQueueLauncher(mode="smoke-signals")
        with pytest.raises(DistributionError):
            WorkQueueLauncher(drainers=-1)

    def test_workqueue_thread_mode_completes(self, tmp_path):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        results = WorkQueueLauncher(drainers=2, mode="thread", timeout=120).launch(
            spec, shards, str(tmp_path)
        )
        assert len(results) == 1
        assert len(results[0].units[0].history) == spec.budget

    def test_workqueue_launcher_reports_shard_failure_as_outcome(self, tmp_path):
        spec = tiny_spec()
        shards = plan_tasks(plan_units(spec), 1)
        spec.models[0].dataset = DatasetRef.for_npz(str(tmp_path / "gone.npz"))
        outcomes = WorkQueueLauncher(
            drainers=1, mode="thread", timeout=60, stale_after=None,
        ).launch(spec, shards, str(tmp_path))
        assert len(outcomes) == 1
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert "gone.npz" in failure.error
        assert failure.worker  # queue failures carry the worker identity
