"""The ``fabric`` CLI surface: plan, report, and the shared resolver."""

import json

import pytest

from repro.cli import build_fabric_parser, main


class TestFabricParser:
    def test_plan_requires_spec(self):
        with pytest.raises(SystemExit):
            build_fabric_parser("plan").parse_args([])

    def test_plan_defaults(self):
        args = build_fabric_parser("plan").parse_args(["--spec", "s.json"])
        assert args.shards == 1
        assert args.launcher is None
        assert args.max_retries == 0

    def test_unknown_launcher_rejected(self):
        with pytest.raises(SystemExit):
            build_fabric_parser("plan").parse_args(
                ["--spec", "s.json", "--launcher", "carrier"])

    def test_report_and_deploy_require_plan(self):
        for action in ("report", "deploy"):
            with pytest.raises(SystemExit):
                build_fabric_parser(action).parse_args([])


class TestFabricMainErrors:
    def test_missing_action_errors(self, capsys):
        assert main(["fabric"]) == 2
        assert "plan, report, deploy" in capsys.readouterr().err

    def test_unknown_action_errors(self, capsys):
        assert main(["fabric", "compile"]) == 2
        assert "plan, report, deploy" in capsys.readouterr().err

    def test_missing_spec_file_errors(self, capsys):
        assert main(["fabric", "plan", "--spec", "/nope/spec.json"]) == 2
        assert "no fabric spec" in capsys.readouterr().err

    def test_missing_plan_file_errors(self, capsys):
        assert main(["fabric", "report", "--plan", "/nope/plan.json"]) == 2
        assert "no fabric plan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--rate", "0"], ["--rate", "-5"], ["--flows", "1"],
    ])
    def test_bad_deploy_load_errors(self, capsys, flag):
        assert main(["fabric", "deploy", "--plan", "p.json", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag[0] in err

    def test_bad_shards_errors(self, capsys):
        assert main(["fabric", "plan", "--spec", "s.json",
                     "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err


class TestSharedResolver:
    def test_compile_path_rejects_unknown_backend(self, capsys):
        assert main(["--app", "tc", "--target", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'nosuch'" in err
        assert "available" in err

    def test_compile_path_normalizes_case(self, capsys):
        # 'Tofino' resolves through the same registry the fabric uses.
        code = main(["--app", "tc", "--target", "Tofino",
                     "--algorithm", "decision_tree", "--budget", "2",
                     "--seed", "0"])
        assert code == 0
        assert "tofino" in capsys.readouterr().out

    def test_fabric_spec_rejects_unknown_device(self, tmp_path, capsys,
                                                make_leaf_spec):
        doc = make_leaf_spec().to_dict()
        doc["topology"]["tiers"][1]["device"] = "broadcom"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["fabric", "plan", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "broadcom" in err
        assert "available" in err


class TestPlanReportRoundTrip:
    def test_plan_then_report(self, tmp_path, capsys, make_leaf_spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(make_leaf_spec().to_dict()))
        plan_path = tmp_path / "plan.json"

        assert main(["fabric", "plan", "--spec", str(spec_path),
                     "--out", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "leaf0:tc" in out
        assert f"plan written to {plan_path}" in out

        assert main(["fabric", "report", "--plan", str(plan_path)]) == 0
        assert "leaf1:tc" in capsys.readouterr().out

        assert main(["fabric", "report", "--plan", str(plan_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert len(doc["devices"]) == 2
