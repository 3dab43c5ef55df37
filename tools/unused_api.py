#!/usr/bin/env python
"""List the public API in ``src/repro`` that nothing uses.

A definition is public when its name has no leading underscore: the
top-level functions and classes of every module, and the methods
(properties included) defined in the body of a top-level class.  It is
*used* when its name appears as a whole word in ``src/`` outside its
own definition, outside the other definitions of the same name and
outside the package ``__init__`` re-exports (imports and ``__all__``),
or anywhere in ``benchmarks/``, ``examples/``, ``perfbench/`` or
``tools/``.  Tests do not count: an API that only its own tests call is
still unused.  Names that stay on purpose are listed in
:data:`ALLOWED`, each with the reason::

    python tools/unused_api.py            # list the unused names
    python tools/unused_api.py --check    # exit 1 on an unused name that
                                          # is not allowed, or a stale entry
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories outside ``src/`` whose uses count.
CALLER_DIRS = ("benchmarks", "examples", "perfbench", "tools")

#: Unused names that stay, keyed ``function``/``Class`` or ``Class.method``.
ALLOWED = {
    "_BaseTree.n_leaves": "the tree oracle tests compare it",
    "quantization_error_bound": "bounds the quantize property tests",
    "FixedPointFormat.min_value": "bounds the quantize property tests",
    "FixedPointFormat.max_value": "bounds the quantize property tests",
    "TrainHistory.epochs_run": "the early-stopping test checks training with it",
    "NeuralNetwork.set_weights": "the flat-training oracle test reloads weights with it",
    "register_backend": "a failure-injection test substitutes a fake backend",
    "load_report_dict": "the export round-trip test reads the bundle back",
    "reset_tracer": "test infrastructure: isolates the tracer between tests",
    "Gauge.dec": "the registry tests check gauge arithmetic with it",
    "_NullInstrument.dec": "a disabled gauge accepts what Gauge accepts",
    # Owed to the roadmap's "delete the API nothing calls" item; each
    # goes with the tests that check only it (counts in parentheses).
    "generate_trace": "owed (2 tests)",
    "fuse_bins": "owed (3 tests)",
    "flow_packet_features": "owed (1 test)",
    "Flow.total_bytes": "owed (1 test, shared with mean_size)",
    "Flow.mean_size": "owed (1 test, shared with total_bytes)",
    "TaurusSimulator.format_stage_report": "owed (1 test)",
    "FabricPlan.device_entries": "owed (1 test)",
    "DesignSpace.from_json": "owed (its spec round-trip tests)",
    "train_test_split": "owed (6 tests)",
    "MinMaxScaler": "owed (5 tests)",
    "LabelEncoder": "owed (5 tests)",
    "LabelEncoder.inverse_transform": "owed with LabelEncoder",
}

_WORD = re.compile(r"\w+")


def _python_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions(tree: ast.Module):
    """``(qualified name, bare name, first line, last line)`` per public def."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield (f"{node.name}.{member.name}", member.name,
                           member.lineno, member.end_lineno)


def _re_export_lines(tree: ast.Module) -> set:
    """Lines of an ``__init__``'s imports and ``__all__``."""
    lines = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def scan(root: str = REPO_ROOT) -> dict:
    """Every unused public name under ``root/src/repro``, with its location."""
    words: Counter = Counter()
    defs = []
    for path in _python_files(os.path.join(root, "src", "repro")):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        tree = ast.parse("\n".join(lines), filename=path)
        skip = (_re_export_lines(tree)
                if os.path.basename(path) == "__init__.py" else set())
        for number, line in enumerate(lines, 1):
            if number not in skip:
                words.update(_WORD.findall(line))
        rel = os.path.relpath(path, root)
        for qualname, name, first, last in _definitions(tree):
            body = Counter(_WORD.findall("\n".join(lines[first - 1:last])))
            defs.append((qualname, name, body[name], f"{rel}:{first}"))
    # This file names every allowed entry; those are not uses.
    this = os.path.join(root, "tools", os.path.basename(__file__))
    for directory in CALLER_DIRS:
        for path in _python_files(os.path.join(root, directory)):
            if path != this:
                with open(path, encoding="utf-8") as handle:
                    words.update(_WORD.findall(handle.read()))
    n_defs = Counter(name for _, name, _, _ in defs)
    return {
        qualname: where
        for qualname, name, own, where in defs
        if words[name] - own - (n_defs[name] - 1) <= 0
    }


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
