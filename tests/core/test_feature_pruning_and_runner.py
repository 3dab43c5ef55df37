"""Tests for IIsy feature pruning in the evaluator and the CLI runner."""

import pytest

from repro.alchemy import DataLoader, Model
from repro.backends.tofino import TofinoBackend
from repro.core.evaluator import ModelEvaluator
from repro.eval.runner import EXPERIMENTS, main, run_experiment


def make_spec(name, dataset, metric="f1", algorithms=("svm",)):
    @DataLoader
    def loader():
        return dataset

    return Model(
        {
            "optimization_metric": [metric],
            "algorithm": list(algorithms),
            "name": name,
            "data_loader": loader,
        }
    )


class TestSvmFeaturePruning:
    """§4: 'remove less impactful features until the SVM model fits'."""

    def test_dataset_pruned_to_mat_budget(self, tc_dataset):
        spec = make_spec("tc", tc_dataset)
        constraints = {"performance": {}, "resources": {"mats": 5}}
        evaluator = ModelEvaluator(
            spec, tc_dataset, "svm", TofinoBackend(), constraints, seed=0
        )
        # 7 features would need 8 MATs; with 5 available keep 4 features.
        assert evaluator.dataset.n_features == 4

    def test_pruned_pipeline_fits_and_scores(self, tc_dataset):
        spec = make_spec("tc", tc_dataset)
        constraints = {"performance": {}, "resources": {"mats": 5}}
        evaluator = ModelEvaluator(
            spec, tc_dataset, "svm", TofinoBackend(), constraints, seed=0,
        )
        out = evaluator.evaluate({"c_log10": 0.0, "lr_log10": -1.0, "epochs": 20})
        assert out.feasible
        assert out.metrics["resource_mats"] <= 5
        assert out.objective > 0.2  # still learns something on 4 features

    def test_no_pruning_when_budget_sufficient(self, tc_dataset):
        spec = make_spec("tc", tc_dataset)
        constraints = {"performance": {}, "resources": {"mats": 16}}
        evaluator = ModelEvaluator(
            spec, tc_dataset, "svm", TofinoBackend(), constraints, seed=0
        )
        assert evaluator.dataset.n_features == tc_dataset.n_features

    def test_other_algorithms_untouched(self, tc_dataset):
        spec = make_spec("tc", tc_dataset, metric="v_measure", algorithms=("kmeans",))
        constraints = {"performance": {}, "resources": {"mats": 3}}
        evaluator = ModelEvaluator(
            spec, tc_dataset, "kmeans", TofinoBackend(), constraints, seed=0
        )
        assert evaluator.dataset.n_features == tc_dataset.n_features


class TestRunner:
    def test_registry_covers_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "table4", "table5",
            "fig4", "fig6", "fig7", "reaction_time",
        }

    def test_run_fig6_text(self):
        text = run_experiment("fig6", seed=0, quick=True)
        assert "packet-length histogram" in text

    def test_main_single_experiment(self, tmp_path, capsys):
        code = main(["--experiment", "fig6", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig6.txt").exists()
        assert "fig6" in capsys.readouterr().out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table99"])

