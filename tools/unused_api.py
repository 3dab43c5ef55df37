#!/usr/bin/env python
"""List the public API in ``src/repro`` that nothing uses.

A definition is public when its name has no leading underscore: the
top-level functions and classes of every module, and the methods
(properties included) defined in the body of a top-level class.  It is
*used* when code names it: an ``ast.Name``, an ``ast.Attribute`` or an
imported name, in ``src/`` outside its own definition and outside the
package ``__init__`` re-exports (imports and ``__all__``), or anywhere in
``benchmarks/``, ``examples/``, ``perfbench/`` or ``tools/``.  Prose is
not a use: docstrings, comments and other strings (``__all__`` entries
included) never count.  Neither does a string annotation such as
``"WallClock | VirtualClock | None"``: a name that only a quoted type
hint mentions is never constructed or called.  An f-string's fields are
code, so a call inside one counts.  Tests do not count either: an API
that only its own tests call is still unused.  Names that stay on
purpose are listed in :data:`ALLOWED`, each with the reason::

    python tools/unused_api.py            # list the unused names
    python tools/unused_api.py --check    # exit 1 on an unused name that
                                          # is not allowed, or a stale entry
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories outside ``src/`` whose uses count.
CALLER_DIRS = ("benchmarks", "examples", "perfbench", "tools")

#: Unused names that stay, keyed ``function``/``Class`` or ``Class.method``.
ALLOWED = {
    # Test infrastructure, or a reference that a test compares against.
    "_BaseTree.n_leaves": "the tree oracle tests compare it",
    "quantize": "the fixed-point property tests check quantize_to_int's rounding through it",
    "quantization_error_bound": "bounds the quantize property tests",
    "FixedPointFormat.min_value": "bounds the quantize property tests",
    "FixedPointFormat.max_value": "bounds the quantize property tests",
    "TrainHistory.epochs_run": "the early-stopping test checks training with it",
    "NeuralNetwork.get_weights": "the flat-training oracle test compares trained weights with it",
    "NeuralNetwork.set_weights": "the flat-training oracle test reloads weights with it",
    "Layer.gradients": "the per-key optimizer oracle (tests/ml/optimizer_oracle.py) reads it",
    "Dense.gradients": "the per-key optimizer oracle (tests/ml/optimizer_oracle.py) reads it",
    "RangeEntry.matches": "the table-interpreter oracle test looks entries up with it",
    "TaurusSimulator.stage_report":
        "the stage-report tests check resources() and pipeline_cycles() against its rows",
    "five_tuple": "the stream-oracle property test runs FlowmarkerTracker under it",
    "VirtualClock": "test infrastructure: replay pacing runs on it deterministically",
    "register_backend": "a failure-injection test substitutes a fake backend",
    "load_report_dict": "the export round-trip test reads the bundle back",
    "reset_tracer": "test infrastructure: isolates the tracer between tests",
    # The paper's declarative Alchemy API surface.
    "IOMap": "paper Table 1: Alchemy's construct wiring model inputs and outputs",
    "Platforms.FPGA": "paper Figure 3's platform factory; the FPGA is Table 5's testbed",
}


def _python_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions(tree: ast.Module):
    """``(qualified name, bare name, node)`` per public definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member.name, member


def _uses(node: ast.AST, skip: "set | None" = None) -> Counter:
    """Names that ``node``'s code uses; ``skip`` holds nodes not to count."""
    uses: Counter = Counter()
    for sub in ast.walk(node):
        if skip and sub in skip:
            continue
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses.update(sub.name.split("."))
    return uses


def _re_exports(tree: ast.Module) -> set:
    """Every node of an ``__init__``'s imports and ``__all__``."""
    nodes = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            nodes.update(ast.walk(node))
    return nodes


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def scan(root: str = REPO_ROOT) -> dict:
    """Every unused public name under ``root/src/repro``, with its location."""
    uses: Counter = Counter()
    defs = []
    for path in _python_files(os.path.join(root, "src", "repro")):
        tree = _parse(path)
        skip = _re_exports(tree) if os.path.basename(path) == "__init__.py" else None
        uses += _uses(tree, skip)
        rel = os.path.relpath(path, root)
        for qualname, name, node in _definitions(tree):
            own = _uses(node)[name]
            defs.append((qualname, name, own, f"{rel}:{node.lineno}"))
    for directory in CALLER_DIRS:
        for path in _python_files(os.path.join(root, directory)):
            uses += _uses(_parse(path))
    return {qualname: where for qualname, name, own, where in defs
            if uses[name] - own <= 0}


def check(root: str = REPO_ROOT, allowed: "dict | None" = None) -> list:
    """Problems: unused names not in ``allowed``, and allowed names now used."""
    allowed = ALLOWED if allowed is None else allowed
    unused = scan(root)
    problems = [f"{where}: {name} is public but nothing uses it"
                for name, where in sorted(unused.items()) if name not in allowed]
    problems += [f"allowlist entry {name!r} is no longer unused; drop it"
                 for name in sorted(allowed) if name not in unused]
    return problems


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository to scan (default: this checkout)")
    parser.add_argument("--check", action="store_true",
                        help="fail on any unused name the allowlist does not hold")
    args = parser.parse_args(argv)
    if not args.check:
        for name, where in sorted(scan(args.root).items()):
            note = ALLOWED.get(name)
            print(f"{where}: {name}" + (f"  (allowed: {note})" if note else ""))
        return 0
    problems = check(args.root)
    for problem in problems:
        print(f"unused-api: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"no unused public API outside the {len(ALLOWED)}-name allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
