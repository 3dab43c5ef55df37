"""Pull-model collectors: re-expose embedded telemetry at scrape time.

The serving plane already keeps rich counters inside
:class:`~repro.serving.stats.ServingStats`; duplicating every
increment into the registry would tax the packet path and drift the two
accounts apart.  Instead the ``/metrics`` endpoint *pulls*: at scrape
time these collectors read the live stats objects and emit extra
samples alongside the registry snapshot.  This works whether or not
``REPRO_OBS`` is set — the data plane pays nothing either way.

Samples are ``(name, kind, help, label_pairs, value)`` tuples, the
``extra_samples`` shape :func:`repro.obs.registry.render_prometheus`
accepts.
"""

from __future__ import annotations

__all__ = ["serving_samples", "fleet_samples"]

_COUNTER_HELP = {
    "packets": "packets classified and recorded by the engine",
    "enqueued": "packets arrived at the ingress queue, dropped ones included",
    "dropped": "packets dropped across all causes",
    "batches": "inference batches executed",
    "batch_rows": "rows across all inference batches",
    "swaps": "pipeline swaps applied",
}


def serving_samples(worker: str, stats) -> list:
    """Prometheus samples for one engine's :class:`ServingStats`.

    ``worker`` labels every sample so a fleet scrape keeps engines
    apart.  Counter totals come from :meth:`ServingStats.counters`; the
    end-to-end latency histogram is exported as it is kept, as
    ``repro_serving_latency_seconds`` buckets, sum and count.
    """
    pairs = (("worker", worker),)
    samples: list = []
    for key, value in stats.counters().items():
        samples.append((
            f"repro_serving_{key}_total", "counter",
            _COUNTER_HELP.get(key, ""), pairs, float(value),
        ))
    buckets = stats.latency.buckets()
    samples.append((
        "repro_serving_latency_seconds", "histogram",
        "end-to-end packet latency (seconds)", pairs,
        {"buckets": buckets, "sum": stats.latency.sum,
         "count": buckets[-1][1]},
    ))
    return samples


def fleet_samples(workers: dict) -> list:
    """Samples for a whole control-plane fleet.

    ``workers`` maps worker name → :class:`~repro.control.controller.FleetWorker`
    (anything with ``.engine.stats`` and ``.weight``).  Adds a fleet
    size gauge and each worker's traffic weight next to its serving
    counters.
    """
    samples: list = [(
        "repro_fleet_workers", "gauge", "workers registered with the controller",
        (), float(len(workers)),
    )]
    for name in sorted(workers):
        worker = workers[name]
        samples.append((
            "repro_fleet_traffic_weight", "gauge",
            "traffic share assigned to the worker",
            (("worker", name),), float(getattr(worker, "weight", 0.0)),
        ))
        samples.extend(serving_samples(name, worker.engine.stats))
    return samples
