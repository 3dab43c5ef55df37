"""Async streaming serving runtime.

``generate()`` produces a data-plane program; :mod:`repro.runtime` runs
it synchronously.  This package is the *deployment* layer above both: an
asyncio engine that pipelines **extract -> micro-batch -> infer ->
record** through bounded queues behind one ingress channel with a drop
policy (block / tail-drop / head-drop) and weighted priority lanes with
deficit-round-robin drain, deadline micro-batching, deterministic trace
replay, hitless pipeline swap, online latency percentiles with
ring-buffered depth/latency time series, and multi-pipeline routing
with rolling upgrades — so a software deployment behaves like a switch
pipeline under load instead of an offline batch job.

See ``docs/serving.md`` for the operator-facing tour.
"""

from repro.serving.batching import MicroBatcher, RowBlock
from repro.serving.channel import DROP_POLICIES, BoundedChannel, ChunkChannel
from repro.serving.clock import (
    PacketChunk,
    VirtualClock,
    WallClock,
    loop_replay,
    replay,
    replay_chunks,
)
from repro.serving.device import TimedPipeline
from repro.serving.engine import AsyncStreamEngine
from repro.serving.router import PipelineRouter, Route
from repro.serving.stats import LatencyHistogram, RingSeries, ServingStats

__all__ = [
    "AsyncStreamEngine",
    "BoundedChannel",
    "ChunkChannel",
    "DROP_POLICIES",
    "MicroBatcher",
    "PacketChunk",
    "PipelineRouter",
    "Route",
    "RowBlock",
    "TimedPipeline",
    "ServingStats",
    "LatencyHistogram",
    "RingSeries",
    "VirtualClock",
    "WallClock",
    "loop_replay",
    "replay",
    "replay_chunks",
]
