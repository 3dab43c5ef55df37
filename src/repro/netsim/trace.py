"""Synthetic trace generation.

A :class:`TrafficProfile` is a parametric description of one application's
traffic (packet-size distribution, inter-arrival behaviour, flow length).
Profiles stand in for the paper's captured datasets: IoT device classes for
traffic classification and P2P applications (botnet vs benign) for botnet
detection.  Distributions are lognormal/gamma mixtures — heavy-tailed like
real traffic, cheap to sample, and fully seedable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.netsim.flow import Flow
from repro.netsim.packet import PROTO_TCP, Packet, clamp_size
from repro.rng import as_generator


@dataclass(frozen=True)
class TrafficProfile:
    """Parametric traffic model for one application/device class.

    Attributes
    ----------
    name:
        class label (e.g. ``"storm_botnet"`` or ``"camera"``).
    size_mean / size_sigma:
        lognormal parameters of packet size in bytes (of ``exp(N(mu, s))``
        expressed via the *linear-scale* mean for readability).
    ipt_mean / ipt_sigma:
        lognormal parameters of inter-packet gaps in seconds.
    flow_length_mean:
        mean packets per flow (geometric-ish via gamma rounding, >= 2).
    protocol:
        IP protocol for generated packets.
    port_range:
        inclusive range destination ports are drawn from.
    size_modes:
        optional extra (mean, weight) modes mixed into the size
        distribution, for multi-modal applications.
    """

    name: str
    size_mean: float
    size_sigma: float
    ipt_mean: float
    ipt_sigma: float
    flow_length_mean: float
    protocol: int = PROTO_TCP
    port_range: tuple = (1024, 65535)
    size_modes: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.size_mean <= 0 or self.ipt_mean <= 0:
            raise DatasetError("size_mean and ipt_mean must be positive")
        if self.size_sigma < 0 or self.ipt_sigma < 0:
            raise DatasetError("sigmas must be non-negative")
        if self.flow_length_mean < 2:
            raise DatasetError("flow_length_mean must be >= 2")
        lo, hi = self.port_range
        if not 0 <= lo <= hi < 2**16:
            raise DatasetError(f"bad port_range {self.port_range}")

    # -- samplers ------------------------------------------------------------
    def _lognormal(self, rng: np.random.Generator, mean: float, sigma: float) -> float:
        # Parameterize by linear-scale mean: mu = ln(mean) - sigma^2 / 2.
        mu = np.log(mean) - 0.5 * sigma**2
        return float(rng.lognormal(mu, sigma)) if sigma > 0 else float(mean)

    def sample_size(self, rng: np.random.Generator) -> int:
        modes = [(self.size_mean, 1.0)] + list(self.size_modes)
        weights = np.array([w for _, w in modes], dtype=float)
        weights /= weights.sum()
        mean = modes[int(rng.choice(len(modes), p=weights))][0]
        return clamp_size(round(self._lognormal(rng, mean, self.size_sigma)))

    def sample_ipt(self, rng: np.random.Generator) -> float:
        return max(1e-9, self._lognormal(rng, self.ipt_mean, self.ipt_sigma))

    def sample_flow_length(self, rng: np.random.Generator) -> int:
        length = rng.gamma(shape=2.0, scale=self.flow_length_mean / 2.0)
        return max(2, int(round(length)))


def generate_flow(
    profile: TrafficProfile,
    seed: "int | np.random.Generator | None" = None,
    start_time: float = 0.0,
    src_ip: "int | None" = None,
    dst_ip: "int | None" = None,
) -> Flow:
    """Generate one labeled flow from a profile."""
    rng = as_generator(seed)
    if src_ip is None:
        src_ip = int(rng.integers(0x0A000000, 0x0AFFFFFF))  # 10.0.0.0/8
    if dst_ip is None:
        dst_ip = int(rng.integers(0xC0A80000, 0xC0A8FFFF))  # 192.168.0.0/16
    lo, hi = profile.port_range
    src_port = int(rng.integers(1024, 65535))
    dst_port = int(rng.integers(lo, hi + 1))
    length = profile.sample_flow_length(rng)
    flow = Flow(label=profile.name)
    t = start_time
    for i in range(length):
        if i > 0:
            t += profile.sample_ipt(rng)
        flow.add(
            Packet(
                timestamp=t,
                size=profile.sample_size(rng),
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                protocol=profile.protocol,
                ttl=int(rng.integers(32, 128)),
            )
        )
    return flow


def interleave_flows(flows, label_fn=None) -> tuple:
    """Merge flows into one capture: timestamp-sorted ``(packets, labels)``.

    ``label_fn(flow)`` labels every packet of a flow (e.g.
    :func:`repro.datasets.botnet.flow_label`); without it ``labels`` is
    ``None``.  The sort is stable, so packets sharing a timestamp keep
    flow order.
    """
    tagged = []
    for flow in flows:
        label = label_fn(flow) if label_fn is not None else None
        tagged.extend((packet, label) for packet in flow)
    tagged.sort(key=lambda item: item[0].timestamp)
    packets = [packet for packet, _ in tagged]
    labels = [label for _, label in tagged] if label_fn is not None else None
    return packets, labels
