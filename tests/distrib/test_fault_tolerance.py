"""Fault-tolerance layer tests: heartbeats, the stale-claim reaper,
attempt-namespaced retries, and the driver's keep-survivors-retry-failed
loop — including crash injection at every worker boundary.

The scenarios mirror the ways real fleets die: a worker that records a
failure (``failed/`` entry), a worker SIGKILLed between claim and
complete (orphaned claim, recovered by the reaper), drainers that all
exit with work outstanding (recovered by the driver's re-post), and two
reapers racing the same stale claim (exactly one wins)."""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.distrib import (
    DatasetRef,
    InProcessLauncher,
    ModelEntry,
    ReaperThread,
    RunSpec,
    SubprocessLauncher,
    TaskFailure,
    WorkQueue,
    WorkQueueLauncher,
    plan_tasks,
    plan_units,
    run_sharded,
    task_name,
)
from repro.distrib.scheduler import ShardSpec
from repro.distrib.worker import (
    CHAOS_FAIL_ENV,
    CHAOS_KILL_ENV,
    ClaimHeartbeat,
    drain,
    maybe_inject_chaos,
)
from repro.errors import DistributionError


def tiny_spec(**overrides):
    base = dict(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=60, n_test=30, seed=11),
                algorithms=("decision_tree", "svm"),
            )
        ],
        budget=2,
        warmup=1,
        train_epochs=3,
        seed=0,
    )
    base.update(overrides)
    return RunSpec(**base)


def age_claim(queue, name, seconds=3600):
    """Backdate a claim's mtime, simulating a stopped heartbeat."""
    path = os.path.join(queue.root, "claimed", f"{name}.json")
    old = time.time() - seconds
    os.utime(path, (old, old))


def chaos_fail_once(monkeypatch, tmp_path, target):
    marker = str(tmp_path / "chaos-marker")
    monkeypatch.setenv(CHAOS_FAIL_ENV, f"{target}@{marker}")
    return marker


# --------------------------------------------------------------------------- #
# queue primitives: touch / stale_claims / discard
# --------------------------------------------------------------------------- #
class TestHeartbeatPrimitives:
    def test_touch_refreshes_claim_mtime(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        age_claim(queue, "t")
        assert queue.stale_claims(60.0) == ["t"]
        assert queue.touch("t") is True
        assert queue.stale_claims(60.0) == []

    def test_touch_missing_claim_returns_false(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        assert queue.touch("ghost") is False

    def test_stale_claims_only_lists_old_claims(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        for name in ("fresh", "old"):
            queue.post(name, {})
            queue.claim()
        age_claim(queue, "old")
        assert queue.stale_claims(60.0) == ["old"]

    def test_claim_heartbeat_touches_while_running(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {})
        queue.claim()
        age_claim(queue, "t")
        with ClaimHeartbeat(queue, "t", interval=0.05):
            time.sleep(0.3)
            assert queue.stale_claims(60.0) == []

    def test_claim_heartbeat_zero_interval_is_noop(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {})
        queue.claim()
        age_claim(queue, "t")
        with ClaimHeartbeat(queue, "t", interval=0.0):
            time.sleep(0.1)
        assert queue.stale_claims(60.0) == ["t"]

    def test_discard_removes_pending_and_claimed(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("pending", {})
        queue.post("claimed", {})
        # claim() takes names in sorted order: "claimed" first.
        queue.claim()
        assert queue.discard("pending") is True
        assert queue.discard("claimed") is True
        assert queue.discard("ghost") is False
        assert queue.pending() == []
        assert queue.claimed() == []

    def test_names_tolerate_deleted_queue_dir(self, tmp_path):
        # A lingering drainer may outlive a finished run's scratch dir;
        # it must idle out, not crash.
        queue = WorkQueue(str(tmp_path / "q"))
        import shutil

        shutil.rmtree(str(tmp_path / "q"))
        assert queue.pending() == []
        assert queue.claim() is None


# --------------------------------------------------------------------------- #
# requeue_stale races (satellite: exactly one of two drivers wins)
# --------------------------------------------------------------------------- #
class TestRequeueRaces:
    def test_two_reapers_racing_one_claim_exactly_one_wins(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        wins = []
        for round_index in range(10):
            name = f"t{round_index}"
            queue.post(name, {})
            queue.claim()
            barrier = threading.Barrier(2)

            def racer():
                barrier.wait()
                if queue.requeue_stale(name):
                    wins.append(name)

            threads = [threading.Thread(target=racer) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            queue.claim()  # re-own for the next round
        assert len(wins) == 10  # one winner per round, never zero or two

    def test_completion_beats_requeue(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        name, _ = queue.claim()
        queue.complete(name, {"done": True})
        assert queue.requeue_stale("t") is False
        assert queue.result_for("t") == {"done": True}

    def test_two_reaper_threads_share_a_queue_without_double_reaping(
        self, tmp_path
    ):
        queue = WorkQueue(str(tmp_path))
        for i in range(6):
            queue.post(f"t{i}", {})
            queue.claim()
            age_claim(queue, f"t{i}")
        reapers = [ReaperThread(queue, stale_after=0.1, poll=0.02)
                   for _ in range(2)]
        for reaper in reapers:
            reaper.start()
        deadline = time.monotonic() + 5
        while len(queue.pending()) < 6 and time.monotonic() < deadline:
            time.sleep(0.02)
        for reaper in reapers:
            reaper.stop()
            reaper.join(timeout=2)
        assert sorted(queue.pending()) == [f"t{i}" for i in range(6)]
        # requeue_stale is atomic: the reapers' combined trophies hold
        # each name exactly once.
        combined = reapers[0].reaped + reapers[1].reaped
        assert sorted(combined) == [f"t{i}" for i in range(6)]


# --------------------------------------------------------------------------- #
# the reaper (satellite: requeue_stale finally has a caller)
# --------------------------------------------------------------------------- #
class TestReaper:
    def test_reaper_requeues_orphaned_claim(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        age_claim(queue, "t")
        reaper = ReaperThread(queue, stale_after=0.1, poll=0.02)
        reaper.start()
        deadline = time.monotonic() + 5
        while not queue.pending() and time.monotonic() < deadline:
            time.sleep(0.02)
        reaper.stop()
        reaper.join(timeout=2)
        assert queue.pending() == ["t"]
        assert queue.claimed() == []
        assert reaper.reaped == ["t"]

    def test_reaper_leaves_heartbeating_claims_alone(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {"x": 1})
        queue.claim()
        reaper = ReaperThread(queue, stale_after=0.3, poll=0.05)
        reaper.start()
        with ClaimHeartbeat(queue, "t", interval=0.05):
            time.sleep(0.8)  # several stale windows pass, heartbeat wins
        reaper.stop()
        reaper.join(timeout=2)
        assert queue.claimed() == ["t"]
        assert reaper.reaped == []

    def test_reaper_rejects_nonpositive_stale_after(self, tmp_path):
        with pytest.raises(DistributionError):
            ReaperThread(WorkQueue(str(tmp_path)), stale_after=0)

    def test_launcher_rejects_stale_after_close_to_heartbeat(self):
        with pytest.raises(DistributionError, match="heartbeat"):
            WorkQueueLauncher(stale_after=1.0, heartbeat=0.9)

    def test_launcher_rejects_disabled_heartbeat_with_reaper_on(self):
        # heartbeat=0 + an active reaper would reap every long-running
        # healthy claim; only legal once the reaper is off.
        with pytest.raises(DistributionError, match="heartbeat"):
            WorkQueueLauncher(heartbeat=0.0)
        WorkQueueLauncher(heartbeat=0.0, stale_after=None)  # fine

    def test_default_drainer_count_follows_width_hint(self, tmp_path):
        # drainers=None: the driver's `shards` knob bounds drainer
        # concurrency like every other launcher.  Functional check:
        # a width-2 launch with default drainers completes both units.
        spec = tiny_spec()
        tasks = plan_tasks(plan_units(spec), 2)
        outcomes = WorkQueueLauncher(
            mode="thread", timeout=120, stale_after=None,
        ).launch(spec, tasks, str(tmp_path), width=2)
        assert len(outcomes) == 2
        assert not any(isinstance(o, TaskFailure) for o in outcomes)


# --------------------------------------------------------------------------- #
# attempt namespacing (satellite: failed/<name> masking the retry)
# --------------------------------------------------------------------------- #
class TestAttemptNamespacing:
    def test_task_names_carry_index_and_attempt(self):
        task = ShardSpec(index=3, n_shards=8, units=[])
        assert task_name(task) == "unit-0003.a0"
        task.attempt = 2
        assert task_name(task) == "unit-0003.a2"

    def test_stale_failure_does_not_mask_the_retry(self, tmp_path):
        # Regression: attempt 0 failed; the retry posts attempt 1.  The
        # driver waits on the *new* name, so the old failed/ entry can
        # neither abort the wait nor double-count the task.
        queue = WorkQueue(str(tmp_path))
        queue.post("unit-0000.a0", {"x": 1})
        queue.claim()
        queue.fail("unit-0000.a0", "first attempt crashed")
        queue.post("unit-0000.a1", {"x": 1})
        queue.claim()
        queue.complete("unit-0000.a1", {"done": True})
        results, failures = queue.wait_resolved(["unit-0000.a1"], timeout=5)
        assert results == {"unit-0000.a1": {"done": True}}
        assert failures == {}

    def test_wait_resolved_reports_failures_instead_of_raising(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        for name in ("unit-0000.a0", "unit-0001.a0"):
            queue.post(name, {})
        queue.claim()
        queue.complete("unit-0000.a0", {"ok": True})
        queue.claim()
        queue.fail("unit-0001.a0", "boom")
        results, failures = queue.wait_resolved(
            ["unit-0000.a0", "unit-0001.a0"], timeout=5
        )
        assert set(results) == {"unit-0000.a0"}
        assert set(failures) == {"unit-0001.a0"}
        assert failures["unit-0001.a0"]["error"] == "boom"
        assert failures["unit-0001.a0"]["worker"]  # host:pid stamped

    def test_wait_resolved_prefers_result_over_late_failure(self, tmp_path):
        # A requeued task can end up with both verdicts (the slow
        # original owner records a failure while the requeued copy
        # completes); the work is done, so the result wins.
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {})
        queue.claim()
        queue.fail("t", "slow original owner")  # failure lands first

        def late_completion():
            time.sleep(0.2)
            queue._write_atomic("results", "t", {"done": True})
            queue.post("u", {})
            queue.claim()
            queue.complete("u", {"done": True})

        writer = threading.Thread(target=late_completion)
        writer.start()
        try:
            # "u" stays unresolved until the writer finishes, so the
            # wait keeps polling and sees t's late result upgrade.
            results, failures = queue.wait_resolved(["t", "u"], timeout=5)
        finally:
            writer.join()
        assert results == {"t": {"done": True}, "u": {"done": True}}
        assert failures == {}

    def test_wait_resolved_synthesizes_failures_when_drainers_die(
        self, tmp_path
    ):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {})
        results, failures = queue.wait_resolved(
            ["t"], timeout=5, alive=lambda: False
        )
        assert results == {}
        assert "drainers exited" in failures["t"]["error"]

    def test_wait_resolved_times_out(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.post("t", {})
        with pytest.raises(DistributionError, match="timed out"):
            queue.wait_resolved(["t"], timeout=0.2, poll=0.05)

    def test_relaunch_discards_superseded_attempts(self, tmp_path):
        # A re-posted attempt cleans up its predecessors' queue entries
        # so no drainer burns budget on an outcome nobody awaits.
        spec = tiny_spec()
        tasks = plan_tasks(plan_units(spec), 1)
        retry = ShardSpec.from_dict(tasks[0].to_dict())
        retry.attempt = 1
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.post(task_name(tasks[0]), {"stale": True})
        WorkQueueLauncher(drainers=1, mode="thread", timeout=60,
                          stale_after=None).launch(
            spec, [retry, tasks[1]], str(tmp_path)
        )
        assert queue.result_for(task_name(tasks[0])) is None
        assert queue.result_for(task_name(retry)) is not None


# --------------------------------------------------------------------------- #
# chaos hook
# --------------------------------------------------------------------------- #
class TestChaosHook:
    def test_noop_without_directive(self):
        maybe_inject_chaos("unit-0000.a0")  # must not raise

    def test_fail_directive_fires_once_with_marker(self, monkeypatch, tmp_path):
        chaos_fail_once(monkeypatch, tmp_path, "unit-0000.a0")
        with pytest.raises(RuntimeError, match="chaos"):
            maybe_inject_chaos("unit-0000.a0")
        maybe_inject_chaos("unit-0000.a0")  # marker exists: no-op now

    def test_suffixless_directive_matches_every_attempt(self, monkeypatch):
        monkeypatch.setenv(CHAOS_FAIL_ENV, "unit-0001")
        for attempt in range(3):
            with pytest.raises(RuntimeError):
                maybe_inject_chaos(f"unit-0001.a{attempt}")
        maybe_inject_chaos("unit-0002.a0")  # other tasks untouched

    def test_kill_degrades_to_exception_in_process(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "unit-0000.a0")
        with pytest.raises(RuntimeError, match="chaos"):
            maybe_inject_chaos("unit-0000.a0", allow_kill=False)


# --------------------------------------------------------------------------- #
# launcher outcomes + the driver's retry loop
# --------------------------------------------------------------------------- #
class TestDriverRetries:
    def test_inprocess_failure_is_an_outcome_not_an_abort(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CHAOS_FAIL_ENV, "unit-0001")
        spec = tiny_spec()
        tasks = plan_tasks(plan_units(spec), 2)
        outcomes = InProcessLauncher().launch(spec, tasks, None, width=2)
        assert len(outcomes) == 2
        assert not isinstance(outcomes[0], TaskFailure)  # survivor kept
        failure = outcomes[1]
        assert isinstance(failure, TaskFailure)
        assert (failure.index, failure.attempt) == (1, 0)
        assert "chaos" in failure.error

    def test_exhausted_retries_report_survivors(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHAOS_FAIL_ENV, "unit-0001")
        with pytest.raises(DistributionError) as excinfo:
            run_sharded(tiny_spec(), shards=2, max_retries=1)
        message = str(excinfo.value)
        assert "retries exhausted" in message
        assert "1/2 tasks completed" in message
        assert "unit-0001.a1" in message  # the attempt that sealed it

    def test_retry_recovers_and_matches_clean_run(self, monkeypatch, tmp_path):
        reference = run_sharded(tiny_spec(), shards=2)
        chaos_fail_once(monkeypatch, tmp_path, "unit-0001.a0")
        out = run_sharded(tiny_spec(), shards=2, max_retries=1)
        assert out.report.best.best_config == reference.report.best.best_config
        assert out.report.best.objective == reference.report.best.objective
        ft = out.stats["fault_tolerance"]
        assert ft["retries"] == 1
        assert ft["retried_tasks"] == {1: 1}
        assert ft["task_launches"] == 3
        assert len(ft["excluded"][1]) == 1

    def test_driver_validates_arguments(self):
        with pytest.raises(DistributionError, match="max_retries"):
            run_sharded(tiny_spec(), shards=1, max_retries=-1)

    def test_subprocess_kill_between_claim_and_complete_is_retried(
        self, monkeypatch, tmp_path
    ):
        # The worker process dies hard (os._exit) while owning the task;
        # the launcher reports the non-zero exit, the driver re-posts.
        reference = run_sharded(tiny_spec(), shards=2)
        marker = str(tmp_path / "kill-marker")
        monkeypatch.setenv(CHAOS_KILL_ENV, f"unit-0000.a0@{marker}")
        out = run_sharded(
            tiny_spec(), shards=2,
            launcher=SubprocessLauncher(timeout=300),
            shard_dir=str(tmp_path / "shards"), max_retries=1,
        )
        assert os.path.exists(marker), "chaos kill never fired"
        assert out.report.best.objective == reference.report.best.objective
        assert out.stats["fault_tolerance"]["retried_tasks"] == {0: 1}

    def test_workqueue_recorded_failure_is_retried(self, monkeypatch, tmp_path):
        reference = run_sharded(tiny_spec(), shards=2)
        chaos_fail_once(monkeypatch, tmp_path, "unit-0001.a0")
        out = run_sharded(
            tiny_spec(), shards=2,
            launcher=WorkQueueLauncher(drainers=2, mode="thread", timeout=300,
                                       stale_after=None),
            shard_dir=str(tmp_path / "shards"), max_retries=2,
        )
        assert out.report.best.objective == reference.report.best.objective
        ft = out.stats["fault_tolerance"]
        assert ft["retried_tasks"] == {1: 1}
        assert ft["excluded"][1]  # the failing drainer was recorded


# --------------------------------------------------------------------------- #
# end-to-end orphan recovery: kill a real drainer between claim and complete
# --------------------------------------------------------------------------- #
class TestOrphanRecovery:
    def drainer_env(self, tmp_path, kill_target=None):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        if kill_target:
            env[CHAOS_KILL_ENV] = f"{kill_target}@{tmp_path}/kill-marker"
        env.pop(CHAOS_FAIL_ENV, None)
        return env

    def post_real_task(self, queue, name):
        spec = tiny_spec()
        task = plan_tasks(plan_units(spec), 1)[0]
        queue.post(name, {
            "name": name,
            "run": spec.to_dict(),
            "shard": task.to_dict(),
            "spill_dir": None,
        })

    def test_killed_drainer_orphans_claim_then_reaper_recovers(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        self.post_real_task(queue, "unit-0000.a0")

        # Drainer 1 claims the task and dies hard before completing.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.distrib.worker",
             "--drain", queue_dir, "--heartbeat", "0.2"],
            env=self.drainer_env(tmp_path, kill_target="unit-0000.a0"),
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 137
        assert queue.claimed() == ["unit-0000.a0"], (
            "the kill must land between claim and complete"
        )
        assert queue.result_for("unit-0000.a0") is None

        # Without the reaper the task is orphaned forever (the
        # regression this PR closes); with it, the claim goes back.
        age_claim(queue, "unit-0000.a0")
        reaper = ReaperThread(queue, stale_after=0.5, poll=0.05)
        reaper.start()
        deadline = time.monotonic() + 10
        while not queue.pending() and time.monotonic() < deadline:
            time.sleep(0.05)
        reaper.stop()
        reaper.join(timeout=2)
        assert queue.pending() == ["unit-0000.a0"]

        # A surviving drainer (chaos marker already burned) finishes it.
        completed = drain(queue_dir)
        assert completed == 1
        result = queue.result_for("unit-0000.a0")
        assert result is not None
        assert len(result["units"][0]["history"]) == tiny_spec().budget

    def test_run_sharded_survives_drainer_killed_mid_run(self, monkeypatch, tmp_path):
        # Full-stack version: two subprocess drainers, one dies hard on
        # its first claim; the launcher's reaper requeues and the run
        # completes bit-identically without burning a driver retry.
        reference = run_sharded(tiny_spec(), shards=2)
        marker = str(tmp_path / "kill-marker")
        monkeypatch.setenv(CHAOS_KILL_ENV, f"unit-0000.a0@{marker}")
        out = run_sharded(
            tiny_spec(), shards=2,
            launcher=WorkQueueLauncher(drainers=2, mode="subprocess",
                                       timeout=300, stale_after=2.0,
                                       heartbeat=0.3),
            shard_dir=str(tmp_path / "shards"), max_retries=2,
        )
        assert os.path.exists(marker), "chaos kill never fired"
        assert out.report.best.best_config == reference.report.best.best_config
        assert out.report.best.objective == reference.report.best.objective
