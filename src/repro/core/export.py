"""Export compiled pipelines and reports to disk.

A downstream user deploys what ``generate()`` produced: the generated
source files, the chosen configuration, and the measured metrics.  This
module writes a self-describing bundle::

    <out>/
      report.json            # metrics, configs, resources, constraints
      <model>/<source files> # Spatial / P4 programs

and reads the JSON back for tooling.
"""

from __future__ import annotations

import json
import os

from repro.core.reports import CompileReport
from repro.errors import HomunculusError
from repro.fsio import jsonable


def report_to_dict(report: CompileReport) -> dict:
    """The JSON-safe structure of a compile report (sources excluded)."""
    models = {}
    for name, model_report in report.models.items():
        models[name] = {
            "algorithm": model_report.algorithm,
            "metric": model_report.metric,
            "objective": model_report.objective,
            "float_objective": model_report.float_objective,
            "best_config": model_report.best_config,
            "resources": model_report.resources,
            "performance": {
                "throughput_gpps": model_report.performance.throughput_gpps,
                "latency_ns": model_report.performance.latency_ns,
            },
            "n_params": model_report.n_params,
            "metadata": model_report.metadata,
            "source_files": sorted(model_report.sources),
            "iterations": (
                len(model_report.optimization.history)
                if model_report.optimization is not None
                else 0
            ),
        }
    return jsonable({
        "target": report.target,
        "schedule": report.schedule,
        "feasible": report.feasible,
        "seed": report.seed,
        "constraints": report.constraints,
        "total_resources": report.total_resources,
        "models": models,
    }, default=str)


def export_report(report: CompileReport, directory: str) -> str:
    """Write the deployment bundle; returns the report.json path."""
    if not isinstance(report, CompileReport):
        raise HomunculusError("export_report expects a CompileReport")
    os.makedirs(directory, exist_ok=True)
    for name, model_report in report.models.items():
        model_dir = os.path.join(directory, name)
        os.makedirs(model_dir, exist_ok=True)
        for filename, source in model_report.sources.items():
            with open(os.path.join(model_dir, filename), "w") as handle:
                handle.write(source)
    path = os.path.join(directory, "report.json")
    with open(path, "w") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
    return path


def load_report_dict(path: str) -> dict:
    """Read a previously exported report.json."""
    if not os.path.exists(path):
        raise HomunculusError(f"no exported report at {path}")
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise HomunculusError(f"malformed report.json: {exc}") from exc
