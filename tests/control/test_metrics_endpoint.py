"""``GET /metrics`` and ``GET /trace`` on the control server.

The scrape surface has two modes: with ``REPRO_OBS`` off it still
serves the fleet's embedded serving telemetry (pull-model collectors
read live :class:`ServingStats` at scrape time), and with it on the
process registry and span buffer ride along — deploy counters, span
totals, and the rollout's control spans all become visible over HTTP.
"""

import asyncio

from repro.control import (
    ControlClient,
    ControlServer,
    FleetController,
)
from repro.obs.registry import REGISTRY, parse_prometheus
from repro.obs.trace import reset_tracer

from test_controller import (
    ToyPipeline,
    fast_gate,
    make_worker,
    start_fleet,
    stop_fleet,
)


def by_name(parsed):
    grouped: dict = {}
    for (name, labels), value in parsed.items():
        grouped.setdefault(name, {})[labels] = value
    return grouped


async def scrape_scenario(deploy=True):
    w0, w1 = make_worker("w0"), make_worker("w1")
    # Deliberately lenient gate: these tests pin the scrape surface,
    # not the regression verdict, so don't let a loaded CI box abort
    # the rollout on latency noise or thin post-swap traffic.
    controller = FleetController(
        [w0, w1],
        gate=fast_gate(latency_floor_s=5.0, min_batches=1, settle_s=10.0),
    )
    controller.register_pipeline("v1", ToyPipeline())
    await start_fleet([w0, w1])
    server = ControlServer(controller)
    port = await server.start()
    client = ControlClient("127.0.0.1", port)
    try:
        report = await client.deploy("v1") if deploy else None
        text = await client.metrics()
        trace = await client.trace()
    finally:
        await server.stop()
        await stop_fleet([w0, w1])
    return report, text, trace


class TestScrapeWithObsOff:
    def test_serving_telemetry_without_registry(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_tracer()
        _, text, trace = asyncio.run(scrape_scenario(deploy=False))
        metrics = by_name(parse_prometheus(text))
        # Pull-model collectors expose per-worker serving counters even
        # though the process registry never saw a single write.
        packets = metrics["repro_serving_packets_total"]
        assert {labels for labels in packets} == {
            (("worker", "w0"),), (("worker", "w1"),),
        }
        assert all(value >= 0 for value in packets.values())
        # No registry families and no spans leak into the scrape.
        assert "repro_control_deploys_total" not in metrics
        assert trace == {"events": []}


class TestScrapeWithObsOn:
    def test_deploy_counters_and_spans_visible(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        REGISTRY.clear()
        reset_tracer()
        try:
            report, text, trace = asyncio.run(scrape_scenario())
        finally:
            reset_tracer()
            REGISTRY.clear()
        assert report["ok"] is True
        metrics = by_name(parse_prometheus(text))
        assert metrics["repro_control_deploys_total"][
            (("outcome", "ok"),)] == 1
        assert metrics["repro_control_ops_total"][(("op", "deploy"),)] == 1
        # The span counter agrees with the buffered trace events.
        names = {event["name"] for event in trace["events"]}
        assert {"control.deploy", "control.swap", "control.settle"} <= names
        spans = metrics["repro_spans_total"]
        assert spans[(("name", "control.deploy"),)] == 1
        assert spans[(("name", "control.swap"),)] == 2   # two workers
        # Exposition stays well-formed under labels + histogram families.
        assert "# TYPE repro_spans_total counter" in text


class TestContentType:
    def test_metrics_served_as_prometheus_text(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)

        async def scenario():
            w0 = make_worker("w0")
            controller = FleetController([w0], gate=fast_gate())
            controller.register_pipeline("v1", ToyPipeline())
            await start_fleet([w0])
            server = ControlServer(controller)
            port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"GET /metrics HTTP/1.1\r\n"
                             b"Host: x\r\nConnection: close\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await stop_fleet([w0])
            return raw.decode("utf-8", "replace")

        response = asyncio.run(scenario())
        head, _, body = response.partition("\r\n\r\n")
        assert " 200 " in head.splitlines()[0]
        assert "text/plain; version=0.0.4; charset=utf-8" in head
        parse_prometheus(body)   # must be well-formed exposition


class TestServingLatencyExport:
    def test_latency_histogram_scraped_after_traffic(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_tracer()
        _, text, _ = asyncio.run(scrape_scenario(deploy=False))
        metrics = by_name(parse_prometheus(text))
        assert "# TYPE repro_serving_latency_seconds histogram" in text
        for worker in ("w0", "w1"):
            pairs = (("worker", worker),)
            count = metrics["repro_serving_latency_seconds_count"][pairs]
            assert count > 0
            assert metrics["repro_serving_latency_seconds_sum"][pairs] > 0
            buckets = sorted(
                ((dict(labels)["le"], value) for labels, value in
                 metrics["repro_serving_latency_seconds_bucket"].items()
                 if dict(labels)["worker"] == worker),
                key=lambda bucket: float(bucket[0]),
            )
            counts = [value for _, value in buckets]
            assert counts == sorted(counts)
            assert buckets[-1] == ("+Inf", count)
