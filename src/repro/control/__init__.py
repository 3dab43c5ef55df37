"""Serving-fleet control plane: observe, deploy, gate, roll back.

The serving layer gives each worker the mechanisms — ring-buffered
telemetry, hitless pipeline swap, rolling upgrades, weighted routes.
This package adds the *policy* layer that drives a whole fleet of them
over HTTP:

* :class:`FleetController` / :class:`FleetWorker` — N named
  :class:`~repro.serving.engine.AsyncStreamEngine` workers under one
  supervisor: rolling deploys gated per worker on its own telemetry
  (auto-rollback on regression or death), instant fleet rollback, live
  traffic splits, one-shot fleet snapshots; :func:`start_workers` /
  :func:`stop_workers` run each worker's engine on its traffic source
  and stop the fleet, reporting dead workers,
* :class:`RegressionGate` — the deploy gate: post-swap vs pre-swap
  window comparison on p99 latency and drop rate,
* :class:`ControlServer` / :class:`ControlClient` — a stdlib-asyncio
  HTTP pair (``GET /fleet``, ``POST /deploy``, ``POST /rollback``,
  ``POST /traffic-split``; concurrent mutations get ``409``);
  :func:`serve_fleet` runs a whole fleet behind the server.

See ``docs/control.md`` for the operator-facing tour and
``benchmarks/bench_control.py`` for a live mid-traffic rollout.
"""

from repro.control.client import ControlClient
from repro.control.controller import (
    FleetController,
    FleetWorker,
    start_workers,
    stop_workers,
)
from repro.control.server import ControlServer, serve_fleet
from repro.control.telemetry import (
    RegressionGate,
    window_metrics,
    window_percentile,
)
from repro.errors import ControlError, DeployConflict

__all__ = [
    "ControlClient",
    "ControlError",
    "ControlServer",
    "DeployConflict",
    "FleetController",
    "FleetWorker",
    "RegressionGate",
    "serve_fleet",
    "start_workers",
    "stop_workers",
    "window_metrics",
    "window_percentile",
]
