"""A reproducible traffic-shift scenario for adaptation experiments.

The adaptation loop needs a workload where drift is *real*: a pipeline
trained before the shift genuinely stops working, and a pipeline
retrained on captured post-shift traffic genuinely recovers.  This
module provides that workload for the per-packet botnet task.

The shift models a botnet *evolving to evade the classifier*: the same
Storm/Waledac botnets (labels don't change — :func:`flow_label` still
maps the profile names to ``BOTNET_LABEL``) migrate their C2 channels
into benign-P2P territory — UDP on uTorrent's port block with
data-packet-sized payloads.  Pre-shift, ``dst_port < 30000`` alone
separates botnet from benign, and the v0 model learns exactly that; the
shifted botnet lands on the benign side of every pre-shift boundary, so
v0's accuracy collapses toward the benign base rate.  Post-shift the
classes are still separable (protocol x port: shifted botnet is the
only UDP traffic below emule's 50000+ block), so a retrain on captured
traffic recovers — the loop has something to find.

Everything here is seed-deterministic so benchmarks and the chaos
bit-identity test can replay the exact same run.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.botnet import BOTNET_PROFILES, flow_label, sample_flows
from repro.distrib.runspec import DatasetRef, ModelEntry, RunSpec
from repro.errors import AdaptationError, DatasetError
from repro.netsim.features import PACKET_FEATURE_NAMES, packet_features
from repro.netsim.trace import TrafficProfile, interleave_flows

__all__ = [
    "PHASE_PRE",
    "PHASE_SHIFTED",
    "SHIFTED_BOTNET_PROFILES",
    "adaptation_spec_factory",
    "generate_phase_flows",
    "packet_dataset",
    "phase_trace",
    "shifting_traffic",
    "train_initial_pipeline",
]

PHASE_PRE = "pre"
PHASE_SHIFTED = "shifted"

#: The evolved botnets.  Names are *reused* from ``BOTNET_PROFILES`` so
#: :func:`flow_label` keeps labeling them botnet; only the observable
#: distribution moves — into the benign envelope of the v0 model.
SHIFTED_BOTNET_PROFILES = (
    TrafficProfile(
        name="storm",
        size_mean=1050.0,          # was 130: now data-packet sized
        size_sigma=0.40,
        ipt_mean=1.5,              # was 300: now bursty like a transfer
        ipt_sigma=1.5,
        flow_length_mean=24.0,
        protocol=17,               # UDP, on uTorrent's port block
        port_range=(31000, 34999),
        size_modes=((200.0, 0.2),),
    ),
    TrafficProfile(
        name="waledac",
        size_mean=1150.0,          # was 190
        size_sigma=0.45,
        ipt_mean=2.0,              # was 550
        ipt_sigma=1.4,
        flow_length_mean=20.0,
        protocol=17,               # was TCP 6
        port_range=(35000, 38999),
        size_modes=((260.0, 0.2),),
    ),
)

_PHASES = {
    PHASE_PRE: BOTNET_PROFILES,
    PHASE_SHIFTED: SHIFTED_BOTNET_PROFILES,
}


def _botnet_profiles(phase: str):
    try:
        return _PHASES[phase]
    except KeyError:
        raise AdaptationError(
            f"unknown phase {phase!r}; expected one of {sorted(_PHASES)}"
        ) from None


def generate_phase_flows(
    n_flows: int,
    phase: str = PHASE_PRE,
    seed: "int | np.random.Generator | None" = 13,
    botnet_fraction: float = 0.5,
) -> list:
    """Labeled flows with the phase's botnet profiles (benign unchanged)."""
    botnet = _botnet_profiles(phase)
    try:
        return sample_flows(botnet, n_flows, botnet_fraction, seed)
    except DatasetError as exc:
        raise AdaptationError(str(exc)) from None


def phase_trace(
    n_flows: int, phase: str = PHASE_PRE, seed: int = 13,
) -> tuple:
    """Timestamp-sorted ``(packets, labels)`` for one phase's traffic."""
    flows = generate_phase_flows(n_flows, phase=phase, seed=seed)
    return interleave_flows(flows, flow_label)


def packet_dataset(
    n_train_flows: int = 150,
    n_test_flows: int = 40,
    phase: str = PHASE_PRE,
    seed: int = 13,
) -> Dataset:
    """Per-packet 7-feature dataset for one phase (train/test split by
    independently seeded flow populations, like the serve-mode AD task)."""

    def split(n_flows: int, split_seed: int):
        flows = generate_phase_flows(n_flows, phase=phase, seed=split_seed)
        rows = [packet_features(p) for f in flows for p in f]
        labels = [flow_label(f) for f in flows for _ in f]
        return np.stack(rows), np.array(labels, dtype=int)

    train_x, train_y = split(n_train_flows, seed)
    test_x, test_y = split(n_test_flows, seed + 1)
    return Dataset(
        train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
        feature_names=PACKET_FEATURE_NAMES, name=f"adaptive-{phase}",
        metadata={"phase": phase, "seed": seed},
    )


def train_initial_pipeline(
    seed: int = 13, n_train_flows: int = 150, n_test_flows: int = 40,
):
    """The v0 pipeline: baseline DNN trained on *pre-shift* traffic only,
    compiled for Taurus.  Returns ``(pipeline, dataset)``."""
    from repro.scenario import serving_pipeline

    return serving_pipeline("ad", seed, data_seed=seed,
                            n_train_flows=n_train_flows,
                            n_test_flows=n_test_flows, name="ad-v0")


def adaptation_spec_factory(
    budget: int = 3,
    seed: int = 13,
    algorithms: tuple = ("dnn",),
    train_epochs: int = 10,
):
    """A ``spec_factory`` for :class:`~repro.drift.loop.AdaptationLoop`.

    Returns ``factory(ref: DatasetRef) -> RunSpec`` searching the given
    algorithm families over the captured-traffic snapshot.  Budget and
    seed are frozen here so every retrain of the same capture is
    bit-identical — the property the chaos test asserts.
    """

    def factory(ref: DatasetRef) -> RunSpec:
        return RunSpec(
            target="taurus",
            models=[ModelEntry("adaptive", ref, metric="f1",
                               algorithms=tuple(algorithms))],
            budget=budget,
            warmup=min(2, budget),
            train_epochs=train_epochs,
            seed=seed,
        )

    return factory


async def shifting_traffic(
    stop: "asyncio.Event",
    pre: tuple,
    post: tuple,
    rate: float = 2000.0,
    shift_after_s: float = 2.0,
    on_shift=None,
    mix_seed: "int | None" = 0,
):
    """Async ``(packet, label)`` generator that switches traces mid-run.

    Loops the ``pre`` trace (a ``(packets, labels)`` pair) chunk-paced at
    ``rate`` packets/s; after ``shift_after_s`` of wall time it switches
    to ``post`` and keeps looping until ``stop`` is set.  Timestamps are
    rebased to stay monotonic across laps *and* across the switch, so
    stateful extractors never see time run backwards.  ``on_shift()``
    fires once, at the switch.

    ``mix_seed`` deterministically interleaves each lap (packet order is
    shuffled; the sorted timestamp sequence is re-assigned in order, so
    time still flows forward).  This models a high-aggregation link
    where many flows interleave — and it is what makes *windowed* drift
    detection meaningful: a strict timestamp replay of a few dozen
    flows gives every detector window a handful of bursty flows, so
    window-to-window divergence within one phase swamps the true
    cross-phase signal (botnet keep-alive gaps are minutes long, so a
    contiguous slice is never a fair sample of the population).  Pass
    ``None`` to replay in strict timestamp order.
    """
    if rate <= 0:
        raise AdaptationError(f"rate must be > 0, got {rate}")
    chunk = max(1, int(rate // 100))
    pause = chunk / rate
    loop = asyncio.get_running_loop()
    started = loop.time()
    offset = 0.0
    shifted = False
    current = pre
    rng = None if mix_seed is None else np.random.default_rng(mix_seed)
    # Counted across laps and the switch: a phase shorter than one chunk
    # must still sleep, or the generator would never yield to ``stop``.
    sent = 0
    while not stop.is_set():
        packets, labels = current
        if not packets:
            raise AdaptationError("trace phase has no packets")
        if rng is not None:
            stamps = [p.timestamp for p in packets]
            order = rng.permutation(len(packets))
            packets = [
                dataclasses.replace(packets[i], timestamp=t)
                for i, t in zip(order, stamps)
            ]
            labels = [labels[i] for i in order]
        base = packets[0].timestamp
        last = base
        for packet, label in zip(packets, labels):
            if stop.is_set():
                return
            if not shifted and loop.time() - started >= shift_after_s:
                shifted = True
                current = post
                offset = last - base + offset + 1.0
                if on_shift is not None:
                    on_shift()
                break
            last = packet.timestamp
            yield (
                dataclasses.replace(
                    packet, timestamp=packet.timestamp - base + offset),
                label,
            )
            sent += 1
            if sent % chunk == 0:
                await asyncio.sleep(pause)
        else:
            # Completed a full lap: rebase the next lap just past this one.
            offset = last - base + offset + 1.0
