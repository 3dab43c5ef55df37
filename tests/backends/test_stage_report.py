"""Tests for the Tungsten-style per-stage simulator report."""

import pytest

from repro.backends.taurus.ir import lower_network
from repro.backends.taurus.simulator import TaurusSimulator


@pytest.fixture
def simulator(trained_ad_net):
    net, scaler = trained_ad_net
    return TaurusSimulator(lower_network(net, scaler=scaler, name="ad"))


class TestStageReport:
    def test_rows_cover_all_stages(self, simulator):
        rows = simulator.stage_report()
        kinds = [row["kind"] for row in rows]
        assert kinds[0] == "scale"
        assert kinds[-1].startswith("decision/")
        assert kinds.count("dense") == 3  # 7->10->6->1

    def test_totals_match_aggregates(self, simulator):
        rows = simulator.stage_report()
        assert sum(r["cus"] for r in rows) == simulator.resources()["cus"]
        assert sum(r["mus"] for r in rows) == simulator.resources()["mus"]

    def test_cycles_sum_to_pipeline_minus_overheads(self, simulator):
        from repro.backends.taurus.resources import DEPARSE_CYCLES, PARSE_CYCLES

        rows = simulator.stage_report()
        stage_cycles = sum(r["cycles"] for r in rows)
        assert stage_cycles + PARSE_CYCLES + DEPARSE_CYCLES == (
            simulator.pipeline_cycles()
        )
