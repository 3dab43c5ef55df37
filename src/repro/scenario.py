"""Train-and-serve setup shared by every serving entry point.

``cli serve``, ``cli control serve``, ``cli fabric deploy``, the drift
scenario, the serving benchmarks and the examples all train an app's
baseline and compile it for Taurus (:func:`serving_pipeline`), pick the
extractor matching its training features (:func:`serving_extractor`),
and replay a botnet/benign capture through it (:func:`botnet_trace`)::

    pipeline, _ = serving_pipeline("bd", seed=0)
    engine = AsyncStreamEngine(pipeline, serving_extractor("bd"))
    engine.process(*botnet_trace(200, seed=TRACE_SEED_OFFSET))
"""

from __future__ import annotations

from repro.datasets.botnet import flow_label, generate_botnet_flows
from repro.distrib.runspec import APP_SPECS
from repro.netsim.trace import interleave_flows

__all__ = [
    "TRACE_SEED_OFFSET",
    "botnet_trace",
    "serving_extractor",
    "serving_pipeline",
]

#: A run seed plus this offset seeds its replay trace, which keeps the
#: trace independent of every app's training data.
TRACE_SEED_OFFSET = 1234


def serving_extractor(app: str):
    """The packet-feature extractor a served ``app`` pipeline needs.

    ``bd`` trains on flowmarkers, so it serves behind the stateful
    :class:`~repro.runtime.FlowmarkerTracker`; ``ad`` (the per-packet
    task) and ``tc`` use per-packet header features.
    """
    from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor

    if app == "bd":
        return FlowmarkerTracker(max_conversations=4096)
    return PacketFeatureExtractor()


def serving_pipeline(
    app: str,
    seed: int = 0,
    *,
    data_seed: "int | None" = None,
    n_train_flows: int = 150,
    n_test_flows: "int | None" = None,
    name: "str | None" = None,
) -> tuple:
    """Train ``app``'s baseline DNN and compile it for Taurus.

    ``seed`` seeds training; the dataset is drawn with ``data_seed``
    (default: ``seed`` plus the app's offset in
    :data:`~repro.distrib.runspec.APP_SPECS`).  Serve-mode datasets:
    ``bd`` flowmarkers of ``n_train_flows`` flows (2 test flows), ``tc``
    the IoT dataset, ``ad`` per-packet features of the pre-shift botnet
    stream (:func:`repro.drift.scenario.packet_dataset`, 40 test flows).
    Returns ``(pipeline, dataset)``; the pipeline is named ``name``
    (default: the app key).
    """
    from repro.backends.taurus import TaurusBackend
    from repro.datasets import load_botnet, load_iot
    from repro.drift.scenario import packet_dataset
    from repro.eval.baselines import train_baseline_dnn

    if app not in APP_SPECS:
        raise ValueError(f"unknown serving app {app!r}")
    if data_seed is None:
        data_seed = seed + APP_SPECS[app].seed_offset
    if app == "bd":
        dataset = load_botnet(
            n_train_flows=n_train_flows,
            n_test_flows=2 if n_test_flows is None else n_test_flows,
            seed=data_seed, per_packet_test=False)
    elif app == "tc":
        dataset = load_iot(seed=data_seed)
    else:
        dataset = packet_dataset(
            n_train_flows, 40 if n_test_flows is None else n_test_flows,
            seed=data_seed)
    net, scaler = train_baseline_dnn(app, dataset, seed=seed)
    pipeline = TaurusBackend().compile_model(net, scaler=scaler,
                                             name=name or app)
    return pipeline, dataset


def botnet_trace(n_flows: int, seed: int, labeled: bool = True) -> tuple:
    """A timestamp-sorted ``(packets, labels)`` botnet/benign capture.

    ``seed`` seeds the flow generator as given.  Each packet is labeled
    with its flow's :func:`~repro.datasets.botnet.flow_label`;
    ``labeled=False`` gives ``labels`` of ``None``.
    """
    flows = generate_botnet_flows(n_flows, seed=seed)
    return interleave_flows(flows, flow_label if labeled else None)
