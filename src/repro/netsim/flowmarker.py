"""FlowLens-style flowmarkers: coarse per-flow histograms.

FlowLens aggregates packet sizes and inter-arrival times into quantized,
truncated histograms ("flowmarkers") maintained in switch registers.  The
paper's BD application uses a 30-bin marker — 23 packet-length bins and 7
inter-packet-time bins, produced by fusing FlowLens's original 151 bins
into coarser ones (§5.1.2).

:func:`partial_flowmarkers` yields the marker state after every packet;
this is the per-packet input that lets Homunculus's generated model react
in nanoseconds instead of waiting 3 600 s for the flow to finish (§5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.netsim.flow import Flow


@dataclass(frozen=True)
class FlowMarkerSpec:
    """Binning spec for a flowmarker.

    Attributes
    ----------
    pl_bin_size:
        packet-length bin width in bytes (paper: 64 B).
    pl_bins:
        number of packet-length bins; lengths beyond the last bin clamp
        into it (truncation, as in FlowLens).
    ipt_bin_size:
        inter-packet-time bin width in seconds (paper: 512 s at flow level).
    ipt_bins:
        number of IPT bins (again with clamping).
    """

    pl_bin_size: int = 64
    pl_bins: int = 23
    ipt_bin_size: float = 512.0
    ipt_bins: int = 7

    def __post_init__(self) -> None:
        if self.pl_bin_size < 1 or self.pl_bins < 1:
            raise DatasetError("packet-length binning must be positive")
        if self.ipt_bin_size <= 0 or self.ipt_bins < 1:
            raise DatasetError("inter-packet-time binning must be positive")

    @property
    def total_bins(self) -> int:
        """Marker width = PL bins + IPT bins (the paper's 23 + 7 = 30)."""
        return self.pl_bins + self.ipt_bins

    def pl_bin(self, size: int) -> int:
        """Bin index for a packet length (clamped into the last bin)."""
        return min(int(size) // self.pl_bin_size, self.pl_bins - 1)

    def ipt_bin(self, gap: float) -> int:
        """Bin index for an inter-arrival gap (clamped into the last bin)."""
        if gap < 0:
            raise DatasetError(f"negative inter-arrival gap {gap}")
        return min(int(gap / self.ipt_bin_size), self.ipt_bins - 1)


#: The paper's 30-bin marker (23 packet-length + 7 inter-arrival bins).
PAPER_SPEC = FlowMarkerSpec(pl_bin_size=64, pl_bins=23, ipt_bin_size=512.0, ipt_bins=7)

#: FlowLens's original marker size for reference (94 PL + 57 IPT = 151 bins).
FLOWLENS_SPEC = FlowMarkerSpec(pl_bin_size=16, pl_bins=94, ipt_bin_size=64.0, ipt_bins=57)


def build_flowmarker(flow: Flow, spec: FlowMarkerSpec = PAPER_SPEC) -> np.ndarray:
    """Full-flow marker: concatenated PL and IPT histograms (raw counts)."""
    marker = np.zeros(spec.total_bins)
    for p in flow:
        marker[spec.pl_bin(p.size)] += 1.0
    for gap in flow.inter_arrival_times:
        marker[spec.pl_bins + spec.ipt_bin(float(gap))] += 1.0
    return marker


def partial_flowmarkers(
    flow: Flow, spec: FlowMarkerSpec = PAPER_SPEC
) -> Iterator[np.ndarray]:
    """Yield the marker state after each packet (what a switch register
    array would hold when packet ``i`` triggers inference)."""
    marker = np.zeros(spec.total_bins)
    prev_ts: "float | None" = None
    for p in flow:
        marker[spec.pl_bin(p.size)] += 1.0
        if prev_ts is not None:
            marker[spec.pl_bins + spec.ipt_bin(p.timestamp - prev_ts)] += 1.0
        prev_ts = p.timestamp
        yield marker.copy()


def average_marker(flows: list[Flow], spec: FlowMarkerSpec = PAPER_SPEC) -> np.ndarray:
    """Average full-flow marker across flows (the curves of Figure 6)."""
    if not flows:
        raise DatasetError("need at least one flow to average markers")
    markers = np.stack([build_flowmarker(f, spec) for f in flows])
    return markers.mean(axis=0)
