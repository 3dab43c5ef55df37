"""Shared benchmark plumbing.

Every bench regenerates one table/figure of the paper: it runs the
experiment through ``pytest-benchmark`` (one round — these are end-to-end
compiler runs, not microseconds-level kernels) and writes the formatted
rows to ``benchmarks/results/`` so the artifacts survive the run.

Alongside every human-readable ``<name>.txt`` table, each bench also
emits a machine-readable ``<name>.json`` summary — one schema for every
bench, so dashboards and regression tooling can diff runs without
scraping tables::

    {"name": ..., "config": {...}, "metrics": {...}, "host": {...}}

``write_json_result`` is importable by the standalone (non-pytest)
benches too; pytest benches get it via the ``record_result`` fixture's
``config=``/``metrics=`` keywords.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time

import pytest

from repro.fsio import jsonable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def host_info() -> dict:
    """Where and when this bench ran — enough to group comparable runs."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "timestamp": time.time(),
    }


def write_json_result(name: str, config: "dict | None" = None,
                      metrics: "dict | None" = None,
                      results_dir: str = RESULTS_DIR) -> str:
    """Write the uniform machine-readable summary; returns its path."""
    os.makedirs(results_dir, exist_ok=True)
    doc = {
        "name": name,
        "config": jsonable(config or {}, default=str),
        "metrics": jsonable(metrics or {}, default=str),
        "host": host_info(),
    }
    path = os.path.join(results_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_bench_json(results_dir):
    """JSON summary for a pytest-benchmark kernel (timing stats only)."""

    def write(name: str, benchmark, **config) -> str:
        stats = benchmark.stats.stats
        return write_json_result(
            name, config=config,
            metrics={
                "mean_s": stats.mean,
                "median_s": stats.median,
                "min_s": stats.min,
                "max_s": stats.max,
                "stddev_s": stats.stddev,
                "rounds": stats.rounds,
            },
            results_dir=results_dir,
        )

    return write


@pytest.fixture
def record_result(results_dir):
    """Write results/<name>.txt (+ the .json summary) and echo the table."""

    def write(name: str, text: str, config: "dict | None" = None,
              metrics: "dict | None" = None) -> None:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        json_path = write_json_result(name, config, metrics,
                                      results_dir=results_dir)
        print(f"\n=== {name} ===\n{text}\n(written to {path}; "
              f"summary {json_path})")

    return write


@pytest.fixture(scope="session")
def table2_config() -> dict:
    """Table 2's committed quick run (Table 5 reads the same rows)."""
    return {"budget": 12, "seed": 0, "quick": True}


@pytest.fixture(scope="session")
def table2_rows(table2_config) -> list:
    """Table 2's rows, computed once per session for Tables 2 and 5."""
    from repro.eval.experiments import run_table2

    return run_table2(**table2_config)
