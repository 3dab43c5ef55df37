"""Table 5 reads FPGA figures off the Table-2 topologies, no retraining."""

from repro.backends.fpga import FpgaBackend
from repro.core import evaluator as evaluator_module
from repro.eval.experiments import run_table5


def test_table5_rows_match_fpga_compile_without_retraining(
    trained_ad_net, monkeypatch
):
    def no_training(*args, **kwargs):
        raise AssertionError("run_table5 constructed a ModelEvaluator")

    monkeypatch.setattr(evaluator_module.ModelEvaluator, "__init__", no_training)
    net, scaler = trained_ad_net
    pipe = FpgaBackend().compile_model(net, scaler=scaler, name="fpga_ad")
    table2_rows = [
        {"app": "ad", "variant": variant, "topology": net.topology}
        for variant in ("baseline", "homunculus")
    ]
    rows = run_table5(table2_rows=table2_rows)
    assert [row["application"] for row in rows] == ["Loopback", "Base-AD", "Hom-AD"]
    for row in rows[1:]:
        assert row["lut_pct"] == pipe.resources["lut_pct"]
        assert row["ff_pct"] == pipe.resources["ff_pct"]
        assert row["bram_pct"] == pipe.resources["bram_pct"]
        assert row["power_w"] == pipe.metadata["power_watts"]
        assert row["topology"] == net.topology
