"""``tools/unused_api.py --check``: no public API in ``src/repro`` goes unused.

The check passes on the tree as committed, and fails, naming exactly
the planted function, on a copy with one public function that nothing
calls.
"""

import importlib.util
import os
import shutil

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "unused_api.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("unused_api", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_has_no_unallowed_unused_api(tool):
    assert tool.check() == []
    assert tool.main(["--check"]) == 0


def test_planted_unused_function_fails_the_check(tool, tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "results", "out")
    for directory in ("src", *tool.CALLER_DIRS):
        shutil.copytree(os.path.join(REPO_ROOT, directory), tmp_path / directory,
                        ignore=ignore)
    module = tmp_path / "src" / "repro" / "fsio.py"
    with open(module, "a", encoding="utf-8") as handle:
        handle.write("\n\ndef planted_helper():\n    return planted_helper\n")
    problems = tool.check(str(tmp_path))
    assert len(problems) == 1
    assert "src/repro/fsio.py" in problems[0] and "planted_helper" in problems[0]
    assert tool.main(["--check", "--root", str(tmp_path)]) == 1
