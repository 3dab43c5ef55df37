"""The load-bearing property: sharding changes wall-clock, never results.

Same seeds, shards ∈ {1, 2, 4}, all three launchers — every combination
must produce identical winners, identical merged Pareto fronts, and
identical merged cache contents; and the ``starts == 1`` runs must be
bit-identical to the serial ``repro.generate``.  The chaos matrix at the
bottom extends the claim through the fault-tolerance layer: injected
worker crashes absorbed by ``max_retries`` change nothing either,
because seeds derive from indices and never from attempts."""

import pytest

import repro
from repro.distrib import (
    DatasetRef,
    InProcessLauncher,
    ModelEntry,
    RunSpec,
    SubprocessLauncher,
    WorkQueueLauncher,
    run_sharded,
)
from repro.distrib.worker import CHAOS_FAIL_ENV, CHAOS_KILL_ENV

#: Two cheap families (no NN training) so the matrix stays fast.
def make_spec(starts=1, cache_dir=None):
    return RunSpec(
        target="tofino",
        models=[
            ModelEntry(
                name="tc",
                dataset=DatasetRef.for_app("tc", n_train=200, n_test=80, seed=11),
                algorithms=("decision_tree", "svm"),
            )
        ],
        budget=4,
        warmup=2,
        train_epochs=4,
        seed=0,
        starts=starts,
        cache_dir=cache_dir,
    )


def fingerprint(out):
    """Everything that must be invariant: winner, front, histories."""
    best = out.report.best
    front = [
        (tuple(sorted(e.config.items())), round(e.objective, 12),
         e.metrics.get("resource_mats"))
        for e in out.fronts["tc"]
    ]
    histories = {}
    for shard in out.shard_results:
        for unit in shard.units:
            key = (unit.model_index, unit.family_index, unit.start)
            histories[key] = [
                (tuple(sorted(e.config.items())), round(e.objective, 12))
                for e in unit.history
            ]
    return {
        "algorithm": best.algorithm,
        "config": tuple(sorted(best.best_config.items())),
        "objective": best.objective,
        "feasible": out.report.feasible,
        "front": front,
        "histories": histories,
    }


def cache_contents(out):
    if out.cache is None:
        return None
    return {
        key: round(e.objective, 12)
        for key, e in out.cache._entries.items()
    }


@pytest.fixture(scope="module")
def serial_report():
    spec = make_spec()
    platform = spec.build_platform()
    return repro.generate(
        platform, budget=spec.budget, warmup=spec.warmup,
        train_epochs=spec.train_epochs, seed=spec.seed,
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    spec = make_spec(cache_dir=str(tmp_path_factory.mktemp("ref-cache")))
    out = run_sharded(spec, shards=1)
    return fingerprint(out), cache_contents(out)


def launchers():
    return [
        ("inprocess", lambda: InProcessLauncher()),
        ("subprocess", lambda: SubprocessLauncher(timeout=300)),
        ("workqueue", lambda: WorkQueueLauncher(drainers=2, mode="thread",
                                                timeout=300)),
    ]


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize(
    "launcher_name,factory", launchers(), ids=[n for n, _ in launchers()]
)
def test_all_launchers_and_shard_counts_agree(
    shards, launcher_name, factory, reference, tmp_path
):
    ref_fp, ref_cache = reference
    spec = make_spec(cache_dir=str(tmp_path / "cache"))
    out = run_sharded(
        spec, shards=shards, launcher=factory(), shard_dir=str(tmp_path / "shards")
    )
    assert fingerprint(out) == ref_fp
    assert cache_contents(out) == ref_cache


def test_sharded_equals_serial_generate(serial_report, reference):
    ref_fp, _ = reference
    best = serial_report.best
    assert ref_fp["algorithm"] == best.algorithm
    assert ref_fp["config"] == tuple(sorted(best.best_config.items()))
    assert ref_fp["objective"] == best.objective
    assert ref_fp["feasible"] == serial_report.feasible
    # Family histories, not just the winner: the start-0 trajectories are
    # the serial ones, evaluation for evaluation.
    serial_histories = {
        algorithm: [
            (tuple(sorted(e.config.items())), round(e.objective, 12))
            for e in result.history
        ]
        for algorithm, result in best.candidate_results.items()
    }
    assert ref_fp["histories"][(0, 0, 0)] == serial_histories["decision_tree"]
    assert ref_fp["histories"][(0, 1, 0)] == serial_histories["svm"]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_multistart_is_shard_count_invariant(shards, tmp_path):
    spec = make_spec(starts=2)
    out = run_sharded(spec, shards=shards, launcher=InProcessLauncher())
    best = out.report.best
    key = (tuple(sorted(best.best_config.items())), best.objective,
           best.algorithm)
    expected = run_sharded(make_spec(starts=2), shards=1)
    expected_best = expected.report.best
    assert key == (
        tuple(sorted(expected_best.best_config.items())),
        expected_best.objective, expected_best.algorithm,
    )
    assert fingerprint(out)["front"] == fingerprint(expected)["front"]


def test_multistart_never_loses_to_serial(serial_report):
    out = run_sharded(make_spec(starts=3), shards=3)
    assert out.report.best.objective >= serial_report.best.objective


# --------------------------------------------------------------------------- #
# the chaos matrix: crashes absorbed by retries change nothing
# --------------------------------------------------------------------------- #
def chaos_launchers():
    # (id, launcher factory, chaos env var).  The in-process and
    # thread-drainer cases must use FAIL (a hard kill would take the
    # test process down); the subprocess launcher takes a real hard
    # kill — os._exit between claim and complete.
    return [
        ("inprocess-fail", lambda: InProcessLauncher(), CHAOS_FAIL_ENV),
        ("subprocess-kill", lambda: SubprocessLauncher(timeout=300),
         CHAOS_KILL_ENV),
        ("workqueue-fail", lambda: WorkQueueLauncher(drainers=2, mode="thread",
                                                     timeout=300,
                                                     stale_after=None),
         CHAOS_FAIL_ENV),
    ]


@pytest.mark.parametrize(
    "chaos_id,factory,chaos_env", chaos_launchers(),
    ids=[i for i, _, _ in chaos_launchers()],
)
def test_injected_crashes_with_retries_are_invisible(
    chaos_id, factory, chaos_env, reference, tmp_path, monkeypatch
):
    """Unit granularity, one injected crash, max_retries=2: fronts,
    histories, and cache contents must match the crash-free reference
    (itself pinned to the serial ``generate``)."""
    ref_fp, ref_cache = reference
    marker = tmp_path / "chaos-marker"
    monkeypatch.setenv(chaos_env, f"unit-0001.a0@{marker}")
    spec = make_spec(cache_dir=str(tmp_path / "cache"))
    out = run_sharded(
        spec, shards=2, launcher=factory(),
        shard_dir=str(tmp_path / "shards"), max_retries=2,
    )
    assert marker.exists(), "the injected crash never fired"
    assert out.stats["fault_tolerance"]["retries"] >= 1
    assert fingerprint(out) == ref_fp
    assert cache_contents(out) == ref_cache
