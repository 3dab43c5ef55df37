"""Docs sanity: every ``python benchmarks/<file>.py`` command runs something.

A benchmark module without an ``if __name__ == "__main__"`` block only
defines pytest tests, so running it as a script exits 0 having done
nothing.  Such modules must be documented as ``python -m pytest
benchmarks/<file>.py``; this test scans README.md and docs/ for script
invocations and requires each named file to exist and to have a main
block.
"""

import os
import re

import pytest

from test_links import REPO_ROOT, doc_files

#: ``python benchmarks/x.py`` or ``python3 benchmarks/x.py``; a
#: ``python -m pytest benchmarks/x.py`` line does not match.
SCRIPT = re.compile(r"\bpython3?\s+benchmarks/(\w+\.py)")
MAIN = re.compile(r"""^if __name__ == ["']__main__["']:""", re.MULTILINE)


def script_commands():
    found = []
    for path in doc_files():
        with open(path) as handle:
            text = handle.read()
        rel = os.path.relpath(path, REPO_ROOT)
        found += [(rel, name) for name in SCRIPT.findall(text)]
    return sorted(set(found))


COMMANDS = script_commands()


def test_docs_name_benchmark_scripts():
    assert COMMANDS, "no 'python benchmarks/<file>.py' command found in the docs"


@pytest.mark.parametrize("doc,script", COMMANDS)
def test_script_command_has_a_main_block(doc, script):
    path = os.path.join(REPO_ROOT, "benchmarks", script)
    assert os.path.isfile(path), f"{doc} runs benchmarks/{script}, which does not exist"
    with open(path) as handle:
        assert MAIN.search(handle.read()), (
            f"{doc} runs benchmarks/{script} as a script, but it has no "
            f"__main__ block; document it as "
            f"'python -m pytest benchmarks/{script} -q'"
        )
