"""Prometheus text exposition: rendering, escaping, strict parsing."""

import pytest

from repro.errors import HomunculusError
from repro.obs.registry import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestRender:
    def test_help_and_type_headers(self, registry):
        registry.counter("jobs_total", "jobs processed").inc()
        text = render_prometheus(registry.snapshot())
        assert "# HELP jobs_total jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 1" in text

    def test_histogram_exposition(self, registry):
        hist = registry.histogram("lat_seconds", "latency")
        hist.observe(0.001)
        hist.observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 0.501" in text
        # Cumulative bucket counts are monotone in le order.
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_extra_samples_appended(self, registry):
        text = render_prometheus(
            registry.snapshot(),
            extra_samples=[
                ("pull_total", "counter", "pull-model sample",
                 (("w", "w0"),), 4.0),
            ],
        )
        assert parse_prometheus(text)[("pull_total", (("w", "w0"),))] == 4.0


class TestRoundTrip:
    def test_label_escaping_round_trips(self, registry):
        hostile = 'quote " backslash \\ newline \n raw \\n end'
        registry.counter("c_total", "help", labels=("k",)).labels(
            k=hostile).inc(3)
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed == {("c_total", (("k", hostile),)): 3.0}

    def test_multiple_labels_sorted(self, registry):
        registry.counter("g", "help", labels=("b", "a")).labels(
            b="2", a="1").inc(9)
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed == {("g", (("a", "1"), ("b", "2"))): 9.0}

    def test_special_float_values(self):
        text = 'x_total 1e+20\ny +Inf\nz -Inf\n'
        parsed = parse_prometheus(text)
        assert parsed[("x_total", ())] == 1e20
        assert parsed[("y", ())] == float("inf")
        assert parsed[("z", ())] == float("-inf")


class TestStrictParse:
    @pytest.mark.parametrize("line", [
        "no_value_here",
        "bad{unterminated 1",
        'bad{k="v&} 1',
        "name 12abc",
        "{} 5",
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(HomunculusError):
            parse_prometheus(line)

    def test_duplicate_sample_raises(self):
        with pytest.raises(HomunculusError):
            parse_prometheus("a_total 1\na_total 2\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus("# HELP a b\n\n   \n# TYPE a counter\n") == {}
