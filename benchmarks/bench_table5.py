"""Table 5: FPGA testbed resource consumption and power.

Paper's claims to reproduce:
  * every model adds LUT/FF/power on top of the loopback shell,
  * BRAM stays at the shell level for all models (parameters live in LUTs),
  * Hom-AD / Hom-TC draw more than their baselines (bigger models);
    Hom-BD draws less than Base-BD (smaller parameter count).
"""

from repro.eval.experiments import format_table5, run_table5


def test_table5(benchmark, table2_rows, table2_config, record_result):
    rows = benchmark.pedantic(lambda: run_table5(table2_rows=table2_rows),
                              rounds=1, iterations=1)
    record_result("table5", format_table5(rows), config=table2_config,
                  metrics={"rows": rows})
    by_app = {row["application"]: row for row in rows}
    shell = by_app["Loopback"]
    models = [row for row in rows if row["application"] != "Loopback"]
    # Every model adds logic and power on top of the shell.
    for row in models:
        assert row["lut_pct"] > shell["lut_pct"]
        assert row["ff_pct"] > shell["ff_pct"]
        assert row["power_w"] > shell["power_w"]
        # BRAM is shell-dominated: constant across models.
        assert row["bram_pct"] == shell["bram_pct"]
    # Bigger generated models draw more than their baselines (AD/TC).
    assert by_app["Hom-AD"]["power_w"] > by_app["Base-AD"]["power_w"]
    assert by_app["Hom-TC"]["power_w"] > by_app["Base-TC"]["power_w"]
