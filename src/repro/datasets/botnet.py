"""Synthetic P2P botnet-detection dataset (the FlowLens substitute).

The paper's BD application separates botnet P2P traffic (Storm, Waledac)
from benign P2P applications (uTorrent, Vuze, eMule, Frostwire) using
flowmarkers — histograms of packet length and inter-arrival time per
conversation.  Botnets maintain *low-volume, high-duration* control flows
with small, regular packets and long gaps; benign P2P transfers are bursty
with large data packets (§5.1.1, Figure 6).  The profiles below encode
exactly that mechanism, so the class-average histograms diverge early in a
flow's life — the property the per-packet reaction-time study relies on.

Training uses full-flow markers while evaluation may use per-packet partial
markers, matching the paper's protocol ("training was done on full
flow-level histograms, while the F1 scores are reported on the per-packet-
level partial histograms", §5.1.2).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.errors import DatasetError
from repro.netsim.flow import Flow
from repro.netsim.flowmarker import (
    PAPER_SPEC,
    FlowMarkerSpec,
    build_flowmarker,
    partial_flowmarkers,
)
from repro.netsim.trace import TrafficProfile, generate_flow
from repro.rng import as_generator

#: Botnet command-and-control: small regular packets, very long gaps —
#: but with enough spread (keep-alive bursts, occasional payloads) that
#: the classes overlap like the real Storm/Waledac traces do.
BOTNET_PROFILES = (
    TrafficProfile(
        name="storm",
        size_mean=130.0,
        size_sigma=0.45,
        ipt_mean=300.0,
        ipt_sigma=1.3,
        flow_length_mean=18.0,
        protocol=17,
        port_range=(10000, 19999),
        size_modes=((600.0, 0.15),),
    ),
    TrafficProfile(
        name="waledac",
        size_mean=190.0,
        size_sigma=0.50,
        ipt_mean=550.0,
        ipt_sigma=1.2,
        flow_length_mean=14.0,
        protocol=6,
        port_range=(20000, 29999),
        size_modes=((450.0, 0.2),),
    ),
)

#: Benign P2P: bursty transfers with large data packets, but also chatty
#: control traffic (small packets) and idle periods (long gaps) that bleed
#: into the botnet's histogram bins.
BENIGN_PROFILES = (
    TrafficProfile(
        name="utorrent",
        size_mean=1100.0,
        size_sigma=0.45,
        ipt_mean=1.2,
        ipt_sigma=1.6,
        flow_length_mean=30.0,
        protocol=6,
        port_range=(30000, 39999),
        size_modes=((180.0, 0.45),),
    ),
    TrafficProfile(
        name="vuze",
        size_mean=950.0,
        size_sigma=0.45,
        ipt_mean=2.5,
        ipt_sigma=1.5,
        flow_length_mean=26.0,
        protocol=6,
        port_range=(40000, 49999),
        size_modes=((300.0, 0.4),),
    ),
    TrafficProfile(
        name="emule",
        size_mean=650.0,
        size_sigma=0.55,
        ipt_mean=40.0,
        ipt_sigma=1.8,
        flow_length_mean=22.0,
        protocol=17,
        port_range=(50000, 59999),
        size_modes=((150.0, 0.35),),
    ),
    TrafficProfile(
        name="frostwire",
        size_mean=850.0,
        size_sigma=0.50,
        ipt_mean=90.0,
        ipt_sigma=1.7,
        flow_length_mean=24.0,
        protocol=6,
        port_range=(60000, 64999),
        size_modes=((220.0, 0.3),),
    ),
)

#: Binary labels: benign P2P = 0, botnet = 1.
BOTNET_LABEL = 1
BENIGN_LABEL = 0


def generate_botnet_flows(
    n_flows: int = 600,
    botnet_fraction: float = 0.5,
    seed: "int | np.random.Generator | None" = 13,
) -> list[Flow]:
    """Generate labeled flows: ``flow.label`` is the profile name."""
    return sample_flows(BOTNET_PROFILES, n_flows, botnet_fraction, seed)


def sample_flows(
    botnet_profiles: tuple,
    n_flows: int,
    botnet_fraction: float,
    seed: "int | np.random.Generator | None",
) -> list[Flow]:
    """Flows drawn from ``botnet_profiles`` (with probability
    ``botnet_fraction``) or :data:`BENIGN_PROFILES`, then a uniform
    profile within the class — the mix behind every botnet capture."""
    if n_flows < 2:
        raise DatasetError("need at least two flows")
    if not 0.0 < botnet_fraction < 1.0:
        raise DatasetError("botnet_fraction must be in (0, 1)")
    rng = as_generator(seed)
    flows = []
    for _ in range(n_flows):
        if rng.random() < botnet_fraction:
            profile = botnet_profiles[int(rng.integers(len(botnet_profiles)))]
        else:
            profile = BENIGN_PROFILES[int(rng.integers(len(BENIGN_PROFILES)))]
        flows.append(generate_flow(profile, seed=rng))
    return flows


def flow_label(flow: Flow) -> int:
    """Binary label from a flow's profile name."""
    botnet_names = {p.name for p in BOTNET_PROFILES}
    benign_names = {p.name for p in BENIGN_PROFILES}
    if flow.label in botnet_names:
        return BOTNET_LABEL
    if flow.label in benign_names:
        return BENIGN_LABEL
    raise DatasetError(f"flow has unknown profile label {flow.label!r}")


def marker_dataset(
    flows: list[Flow], spec: FlowMarkerSpec = PAPER_SPEC
) -> tuple[np.ndarray, np.ndarray]:
    """Full-flow markers and labels for ``flows``."""
    if not flows:
        raise DatasetError("need at least one flow")
    X = np.stack([build_flowmarker(f, spec) for f in flows])
    y = np.array([flow_label(f) for f in flows], dtype=int)
    return X, y


def partial_marker_dataset(
    flows: list[Flow],
    spec: FlowMarkerSpec = PAPER_SPEC,
    max_packets: "int | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-packet partial markers: ``(X, y, packet_index)``.

    Every packet of every flow contributes the marker state *at that
    packet* — the input a per-packet inference pipeline would see.
    ``packet_index`` (1-based position within the flow) supports the
    reaction-time study.
    """
    rows = []
    labels = []
    positions = []
    for flow in flows:
        label = flow_label(flow)
        for i, marker in enumerate(partial_flowmarkers(flow, spec)):
            if max_packets is not None and i >= max_packets:
                break
            rows.append(marker)
            labels.append(label)
            positions.append(i + 1)
    if not rows:
        raise DatasetError("flows produced no packets")
    return np.stack(rows), np.array(labels, dtype=int), np.array(positions, dtype=int)


def load_botnet(
    n_train_flows: int = 500,
    n_test_flows: int = 200,
    spec: FlowMarkerSpec = PAPER_SPEC,
    per_packet_test: bool = True,
    seed: int = 13,
) -> Dataset:
    """The BD dataset: train on full-flow markers, test per-packet (default).

    With ``per_packet_test=False`` the test split also uses full-flow
    markers (the FlowLens baseline protocol).
    """
    rng = as_generator(seed)
    train_flows = generate_botnet_flows(n_train_flows, seed=rng)
    test_flows = generate_botnet_flows(n_test_flows, seed=rng)
    train_x, train_y = marker_dataset(train_flows, spec)
    if per_packet_test:
        test_x, test_y, _ = partial_marker_dataset(test_flows, spec)
    else:
        test_x, test_y = marker_dataset(test_flows, spec)
    return Dataset(
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        feature_names=tuple(
            [f"pl_bin_{i}" for i in range(spec.pl_bins)]
            + [f"ipt_bin_{i}" for i in range(spec.ipt_bins)]
        ),
        name="p2p-botnet",
        metadata={
            "task": "botnet-detection",
            "spec": spec,
            "per_packet_test": per_packet_test,
        },
    )
