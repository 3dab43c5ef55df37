"""Importing the CLI stays cheap: heavy optional modules load on use."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_cli_import_leaves_scipy_stats_and_networkx_unloaded():
    # scipy.stats (~1 s) serves only the BO acquisition and networkx only
    # ScheduleNode.to_dag, so verbs that never search must not pay them.
    script = (
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
