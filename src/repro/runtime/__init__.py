"""Deployment runtime: run a compiled pipeline against live traffic.

``generate()`` ends where the paper's compiler ends — with a data-plane
binary.  This package simulates the *deployed* stage: packets stream
through the pipeline, per-packet features (or per-conversation partial
flowmarkers, maintained in switch-register style) feed inference, and the
operator gets online statistics.
"""

from repro.runtime.stream import (
    FlowmarkerTracker,
    PacketFeatureExtractor,
    StreamProcessor,
    StreamStats,
    extract_rows,
)

__all__ = [
    "StreamProcessor",
    "StreamStats",
    "PacketFeatureExtractor",
    "FlowmarkerTracker",
    "extract_rows",
]
