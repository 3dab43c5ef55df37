"""Tests for the command-line compiler."""

import os
import re

import pytest

from repro.cli import build_parser, build_serve_parser, main
from repro.datasets import load_nslkdd, save_csv_dataset


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_app_and_train_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--app", "ad", "--train", "x.csv"])

    def test_defaults(self):
        args = build_parser().parse_args(["--app", "ad"])
        assert args.target == "taurus"
        assert args.budget == 20
        assert args.metric == "f1"

    def test_repeatable_algorithm(self):
        args = build_parser().parse_args(
            ["--app", "tc", "--algorithm", "svm", "--algorithm", "decision_tree"]
        )
        assert args.algorithm == ["svm", "decision_tree"]

    def test_parallel_flag_defaults(self):
        # The compile-mode --workers/--batch-size knobs are gone; the
        # evaluation cache directory is the one run-level knob left.
        args = build_parser().parse_args(["--app", "ad"])
        assert args.cache_dir is None
        assert not hasattr(args, "workers")
        assert not hasattr(args, "batch_size")

    def test_cache_dir_flag_parses(self):
        args = build_parser().parse_args(["--app", "ad", "--cache-dir", "cache/"])
        assert args.cache_dir == "cache/"


class TestServeParser:
    def test_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.pipelines == "bd"
        assert args.batch_size == 256
        assert args.max_latency_us is None
        assert args.queue_depth == 1024
        assert args.drop_policy == "block"

    def test_all_flags_parse(self):
        args = build_serve_parser().parse_args(
            ["--pipelines", "bd,tc", "--batch-size", "64",
             "--max-latency-us", "500", "--queue-depth", "128",
             "--drop-policy", "tail-drop", "--infer-workers", "4",
             "--speed", "10", "--device-us", "250", "--flows", "50"]
        )
        assert args.pipelines == "bd,tc"
        assert args.batch_size == 64
        assert args.max_latency_us == 500.0
        assert args.queue_depth == 128
        assert args.drop_policy == "tail-drop"
        assert args.infer_workers == 4
        assert args.speed == 10.0
        assert args.device_us == 250.0

    def test_bad_drop_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--drop-policy", "random-early"])

    def test_head_drop_is_a_valid_policy(self):
        args = build_serve_parser().parse_args(["--drop-policy", "head-drop"])
        assert args.drop_policy == "head-drop"

    def test_priorities_and_swap_after_parse(self):
        args = build_serve_parser().parse_args(
            ["--priorities", "bd=4,ad=1", "--swap-after", "500"]
        )
        assert args.priorities == "bd=4,ad=1"
        assert args.swap_after == 500

    def test_bad_priorities_errors(self, capsys):
        assert main(["serve", "--pipelines", "bd",
                     "--priorities", "bd=0"]) == 2
        assert "--priorities" in capsys.readouterr().err
        assert main(["serve", "--pipelines", "bd",
                     "--priorities", "nope=3"]) == 2
        assert "--priorities" in capsys.readouterr().err

    def test_bad_swap_after_errors(self, capsys):
        assert main(["serve", "--pipelines", "bd", "--swap-after", "0"]) == 2
        assert "--swap-after" in capsys.readouterr().err

    def test_unknown_pipeline_errors(self, capsys):
        assert main(["serve", "--pipelines", "bd,nope"]) == 2
        assert "--pipelines" in capsys.readouterr().err

    def test_bad_queue_depth_errors(self, capsys):
        assert main(["serve", "--queue-depth", "0"]) == 2
        assert "--queue-depth" in capsys.readouterr().err

    def test_single_flow_errors(self, capsys):
        assert main(["serve", "--flows", "1"]) == 2
        assert "--flows must be >= 2" in capsys.readouterr().err

    def test_serve_end_to_end_tail_drop(self, capsys):
        code = main(
            ["serve", "--pipelines", "bd", "--flows", "30",
             "--batch-size", "32", "--max-latency-us", "2000",
             "--queue-depth", "64", "--drop-policy", "tail-drop",
             "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[bd]" in out
        assert "latency us" in out

    def test_serve_end_to_end_priorities_and_swap(self, capsys):
        code = main(
            ["serve", "--pipelines", "bd", "--flows", "20",
             "--batch-size", "32", "--queue-depth", "64",
             "--drop-policy", "head-drop", "--priorities", "bd=2",
             "--swap-after", "100", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route weights: bd=2" in out
        assert "rolling swap completed: bd -> v2" in out
        assert "pipeline swaps: 1" in out

    def test_serve_replays_with_setup_garbage_frozen(self, capsys, monkeypatch):
        # Training garbage is collected and frozen before the replay, so
        # no full collection pauses it; the freeze ends with the replay.
        import gc

        from repro.serving import PipelineRouter

        seen = []
        process = PipelineRouter.process

        def spy(self, *args, **kwargs):
            seen.append(gc.get_freeze_count())
            return process(self, *args, **kwargs)

        monkeypatch.setattr(PipelineRouter, "process", spy)
        assert main(["serve", "--pipelines", "bd", "--flows", "10",
                     "--batch-size", "32", "--seed", "0"]) == 0
        assert len(seen) == 1 and seen[0] > 0
        assert gc.get_freeze_count() == 0
        assert "[bd]" in capsys.readouterr().out


class TestControlServe:
    def test_serve_end_to_end(self, capsys):
        code = main(["control", "serve", "--port", "0", "--duration", "1",
                     "--workers", "2", "--flows", "30"])
        assert code == 0
        out = capsys.readouterr().out
        workers = re.findall(
            r"^\[(w\d)\] (\d+) packets, \d+ swaps, (\d+) dropped", out, re.M)
        assert [name for name, _, _ in workers] == ["w0", "w1"]
        for _, packets, dropped in workers:
            assert int(packets) > 0
            assert dropped == "0"

    def test_single_flow_errors(self, capsys):
        assert main(["control", "serve", "--flows", "1"]) == 2
        assert "--flows must be >= 2" in capsys.readouterr().err


class TestMain:
    def test_train_without_test_errors(self, capsys):
        assert main(["--train", "x.csv"]) == 2
        assert "requires --test" in capsys.readouterr().err

    def test_csv_compile_end_to_end(self, tmp_path, capsys):
        dataset = load_nslkdd(n_train=250, n_test=100, seed=7)
        train_csv, test_csv = save_csv_dataset(dataset, str(tmp_path), prefix="ad")
        out_dir = tmp_path / "bundle"
        code = main(
            [
                "--train", train_csv,
                "--test", test_csv,
                "--name", "csv_ad",
                "--budget", "3",
                "--out", str(out_dir),
                "--seed", "0",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "csv_ad" in stdout
        assert os.path.exists(out_dir / "report.json")
        assert os.path.exists(out_dir / "csv_ad")

    def test_builtin_app_tofino(self, capsys):
        code = main(
            ["--app", "tc", "--target", "tofino",
             "--algorithm", "decision_tree", "--budget", "3", "--seed", "0"]
        )
        assert code == 0
        assert "decision_tree" in capsys.readouterr().out

    def test_cache_dir_spills_evaluations(self, tmp_path, capsys):
        cache_dir = tmp_path / "evals"
        code = main(
            ["--app", "tc", "--target", "tofino", "--algorithm", "decision_tree",
             "--budget", "3", "--seed", "0",
             "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        spills = list(cache_dir.glob("*.json"))
        assert spills, "expected per-family cache spill files"


class TestShardedCli:
    def test_shard_flag_defaults(self):
        args = build_parser().parse_args(["--app", "ad"])
        assert args.shards == 1
        assert args.launcher is None
        assert args.shard_dir is None
        assert args.starts == 1

    def test_shard_flags_parse(self):
        args = build_parser().parse_args(
            ["--app", "ad", "--shards", "4", "--launcher", "subprocess",
             "--shard-dir", "/tmp/s", "--starts", "2"]
        )
        assert args.shards == 4
        assert args.launcher == "subprocess"
        assert args.shard_dir == "/tmp/s"
        assert args.starts == 2

    def test_unknown_launcher_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--app", "ad", "--launcher", "carrier"])

    def test_invalid_shards_exit_code(self, capsys):
        assert main(["--app", "tc", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_fault_tolerance_flags_parse(self):
        args = build_parser().parse_args(
            ["--app", "ad", "--max-retries", "2", "--stale-after", "15"]
        )
        assert args.max_retries == 2
        assert args.stale_after == 15.0
        defaults = build_parser().parse_args(["--app", "ad"])
        assert defaults.max_retries == 0

    def test_invalid_max_retries_exit_code(self, capsys):
        assert main(["--app", "tc", "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_cli_retry_recovers_from_injected_crash(
        self, monkeypatch, tmp_path, capsys
    ):
        # --max-retries wires through to the driver: a unit that fails
        # once must not abort the CLI run.
        monkeypatch.setenv(
            "REPRO_CHAOS_FAIL", f"unit-0000.a0@{tmp_path}/marker"
        )
        code = main(
            ["--app", "tc", "--target", "tofino",
             "--algorithm", "decision_tree", "--budget", "2", "--seed", "0",
             "--max-retries", "1"]
        )
        assert code == 0
        assert "config:" in capsys.readouterr().out

    def test_sharded_run_reproduces_serial_report(self, capsys):
        argv = ["--app", "tc", "--target", "tofino",
                "--algorithm", "decision_tree", "--algorithm", "svm",
                "--budget", "3", "--seed", "0"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main([*argv, "--shards", "2", "--launcher", "inprocess"]) == 0
        sharded_out = capsys.readouterr().out
        # The compile-report block (everything before the shard
        # accounting) must be identical, config line included.
        serial_report = serial_out.strip().splitlines()
        sharded_lines = sharded_out.strip().splitlines()
        assert serial_report[0] == sharded_lines[0]
        for line in serial_report:
            if line.startswith("config:"):
                assert line in sharded_lines
        assert any("shards: 2" in line for line in sharded_lines)
        assert any("pareto[" in line for line in sharded_lines)

    def test_sharded_run_writes_deployment_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code = main(
            ["--app", "tc", "--target", "tofino",
             "--algorithm", "decision_tree", "--budget", "3", "--seed", "0",
             "--shards", "2", "--launcher", "inprocess", "--out", str(out_dir)]
        )
        assert code == 0
        assert "deployment bundle written" in capsys.readouterr().out
        assert list(out_dir.rglob("*")), "bundle directory is empty"


class TestRunnerShardFlags:
    def test_runner_rejects_bad_shards(self, capsys):
        from repro.eval.runner import main as runner_main

        assert runner_main(["--experiment", "table2", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_run_experiment_forwards_shard_kwargs(self, monkeypatch):
        from repro.eval import runner

        captured = {}

        def fake_table2(seed=0, quick=True, shards=1, launcher=None,
                        shard_dir=None, max_retries=0):
            captured.update(shards=shards, launcher=launcher,
                            shard_dir=shard_dir, max_retries=max_retries)
            return []

        monkeypatch.setitem(
            runner.EXPERIMENTS, "table2", (fake_table2, lambda rows: "ok")
        )
        text = runner.run_experiment(
            "table2", seed=3, quick=True, shards=4,
            launcher="subprocess", shard_dir="/tmp/q", max_retries=2,
        )
        assert text == "ok"
        assert captured["shards"] == 4
        assert captured["launcher"] == "subprocess"
        assert captured["shard_dir"] == "/tmp/q"
        assert captured["max_retries"] == 2

    def test_run_experiment_skips_shards_for_non_compiler_experiments(
        self, monkeypatch
    ):
        from repro.eval import runner

        captured = {}

        def fake_fig6(seed=0, n_flows=10):
            captured.update(seed=seed)
            return {}

        monkeypatch.setitem(
            runner.EXPERIMENTS, "fig6", (fake_fig6, lambda r: "ok")
        )
        assert runner.run_experiment("fig6", seed=1, quick=True, shards=4) == "ok"
        assert "shards" not in captured


class TestControlSplitWeights:
    @pytest.mark.parametrize("weights", ["w0=x", "w0", "=3", "w0=0", "w0=4,,w1=-1", ","])
    def test_malformed_weights_exit_2(self, weights, capsys):
        assert main(["control", "split", "--port", "1", "--weights", weights]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --weights")
        assert "Traceback" not in err

    def test_priorities_share_the_weight_parser(self, capsys):
        assert main(["serve", "--pipelines", "bd", "--priorities", "bd=x"]) == 2
        assert "--priorities wants 'route=weight,...'" in capsys.readouterr().err
