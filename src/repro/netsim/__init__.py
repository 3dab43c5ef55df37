"""Network substrate: packets, flows, synthetic traces, and features.

The paper's applications consume two kinds of input: per-packet header
features (anomaly detection, traffic classification) and FlowLens-style
*flowmarkers* — coarse histograms of packet length and inter-arrival time
per flow (botnet detection).  This package provides both, plus the trace
generators that stand in for the proprietary datasets.
"""

from repro.netsim.features import PACKET_FEATURE_NAMES, packet_features
from repro.netsim.flow import Flow, FlowTable
from repro.netsim.flowmarker import (
    FlowMarkerSpec,
    build_flowmarker,
    partial_flowmarkers,
)
from repro.netsim.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    conversation_key,
    five_tuple,
)
from repro.netsim.trace import (
    TrafficProfile,
    generate_flow,
    generate_trace,
    interleave_flows,
)

__all__ = [
    "Packet",
    "five_tuple",
    "conversation_key",
    "PROTO_TCP",
    "PROTO_UDP",
    "Flow",
    "FlowTable",
    "TrafficProfile",
    "generate_flow",
    "generate_trace",
    "interleave_flows",
    "packet_features",
    "PACKET_FEATURE_NAMES",
    "FlowMarkerSpec",
    "build_flowmarker",
    "partial_flowmarkers",
]
