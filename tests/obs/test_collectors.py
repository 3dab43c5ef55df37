"""Help text of the serving counters the ``/metrics`` collectors emit."""

from repro.obs.collectors import serving_samples
from repro.serving.stats import ServingStats


def _help_by_name() -> dict:
    return {
        name: help_text
        for name, _kind, help_text, _labels, _value in serving_samples(
            "w0", ServingStats()
        )
    }


class TestServingCounterHelp:
    def test_enqueued_counts_every_arrival_including_drops(self):
        # enqueued == packets + dropped once a run drains, so the help
        # must not claim the counter only sees admitted packets.
        text = _help_by_name()["repro_serving_enqueued_total"]
        assert "arrived" in text
        assert "dropped" in text
        assert "accepted" not in text

    def test_packets_counts_recorded_packets(self):
        text = _help_by_name()["repro_serving_packets_total"]
        assert "recorded" in text
        assert "ingested" not in text
