#!/usr/bin/env python
"""Generate the committed API reference under ``docs/reference/``.

Walks the public exports (``__all__``) of the packages listed in
:data:`PACKAGES` with stdlib :mod:`inspect` and renders one markdown
page per package plus an index.  The output is deterministic — no
timestamps, no memory addresses, no environment paths — so the
committed tree is reproducible byte for byte and CI can fail on drift::

    PYTHONPATH=src python tools/gen_api_docs.py            # regenerate
    PYTHONPATH=src python tools/gen_api_docs.py --check    # exit 1 on drift

``tests/docs/test_api_reference.py`` runs the same comparison, so a
changed docstring or signature fails the suite until the reference is
regenerated and committed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys

#: Packages whose public surface the reference documents.
PACKAGES = ("repro.core", "repro.ml", "repro.bayesopt", "repro.distrib",
            "repro.serving", "repro.control", "repro.obs", "repro.drift",
            "repro.fabric", "repro.scenario")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "docs", "reference")

_HEADER = (
    "<!-- Generated by tools/gen_api_docs.py — do not edit by hand.\n"
    "     Regenerate with: PYTHONPATH=src python tools/gen_api_docs.py -->\n"
)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)  # drops backticks/parens, keeps -/_
    return text.replace(" ", "-")


def _doc_of(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.strip() if doc else "*(no docstring)*"


def _signature_of(obj, name: str) -> "str | None":
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    return f"{name}{sig}"


def _render_data(name: str, value) -> list:
    """Describe a module-level constant without repr()ing live objects."""
    kind = type(value).__name__
    lines = [f"`{kind}`"]
    if isinstance(value, dict):
        keys = ", ".join(f"`{k}`" for k in sorted(str(k) for k in value))
        lines.append(f"keys: {keys}")
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = ", ".join(
            f"`{getattr(v, '__name__', v)}`"
            for v in (sorted(value, key=str) if isinstance(value, (set, frozenset))
                      else value)
        )
        lines.append(f"items: {items}")
    return [" — ".join(lines)]


def _class_members(cls) -> list:
    """Public methods/properties defined on the class, definition order."""
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__, type(member).__name__))
        elif isinstance(member, property):
            members.append((name, member, "property"))
        elif inspect.isfunction(member):
            members.append((name, member, "method"))
    return members


def _render_export(module_name: str, name: str, obj) -> list:
    lines: list = []
    defined_in = getattr(obj, "__module__", None)
    if inspect.isclass(obj):
        lines.append(f"## class `{name}`")
        lines.append("")
        sig = _signature_of(obj, name)
        if sig:
            lines += ["```python", sig, "```", ""]
        if defined_in and defined_in != module_name:
            lines.append(f"*Defined in `{defined_in}`.*")
            lines.append("")
        lines.append(_doc_of(obj))
        lines.append("")
        for member_name, member, kind in _class_members(obj):
            lines.append(f"### `{name}.{member_name}`")
            lines.append("")
            if kind == "property":
                lines.append("*(property)*")
                lines.append("")
            else:
                member_sig = _signature_of(member, member_name)
                if member_sig:
                    lines += ["```python", member_sig, "```", ""]
            lines.append(_doc_of(member if kind != "property" else member.fget))
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"## `{name}()`")
        lines.append("")
        sig = _signature_of(obj, name)
        if sig:
            lines += ["```python", sig, "```", ""]
        if defined_in and defined_in != module_name:
            lines.append(f"*Defined in `{defined_in}`.*")
            lines.append("")
        lines.append(_doc_of(obj))
        lines.append("")
    else:
        lines.append(f"## `{name}`")
        lines.append("")
        lines += _render_data(name, obj)
        lines.append("")
    return lines


def render_package(module_name: str) -> str:
    module = __import__(module_name, fromlist=["__all__"])
    exports = list(getattr(module, "__all__", []))
    lines = [_HEADER, f"# `{module_name}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines.append(doc.strip())
        lines.append("")
    if exports:
        lines.append("**Exports:** " + ", ".join(
            f"[`{name}`](#{_export_slug(module, name)})" for name in exports
        ))
        lines.append("")
    for name in exports:
        obj = getattr(module, name)
        lines += _render_export(module_name, name, obj)
    return "\n".join(lines).rstrip() + "\n"


def _export_slug(module, name: str) -> str:
    obj = getattr(module, name)
    if inspect.isclass(obj):
        return slugify(f"class `{name}`")
    if inspect.isfunction(obj):
        return slugify(f"`{name}()`")
    return slugify(f"`{name}`")


def render_index() -> str:
    lines = [
        _HEADER,
        "# API reference",
        "",
        "Generated from the public exports (`__all__`) of the compiler",
        "core, ML-from-scratch, Bayesian-optimization, distributed-search,",
        "serving, fleet-control, and fabric packages.  Hand-written guides",
        "live one directory up in",
        "[docs/](../); regenerate this tree with",
        "`PYTHONPATH=src python tools/gen_api_docs.py`.",
        "",
    ]
    for module_name in PACKAGES:
        module = __import__(module_name, fromlist=["__all__"])
        page = module_name.rsplit(".", 1)[-1] + ".md"
        doc = (inspect.getdoc(module) or "").strip().splitlines()
        summary = doc[0] if doc else ""
        lines.append(f"## [`{module_name}`]({page})")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
        exports = list(getattr(module, "__all__", []))
        lines.append(", ".join(
            f"[`{name}`]({page}#{_export_slug(module, name)})" for name in exports
        ))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def generate(out_dir: str) -> dict:
    """Render every page; returns ``{relative path: content}``."""
    pages = {"index.md": render_index()}
    for module_name in PACKAGES:
        pages[module_name.rsplit(".", 1)[-1] + ".md"] = render_package(module_name)
    os.makedirs(out_dir, exist_ok=True)
    for name, content in pages.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(content)
    return pages


def check(out_dir: str) -> list:
    """Compare a fresh render against ``out_dir``; returns drift messages."""
    pages = {"index.md": render_index()}
    for module_name in PACKAGES:
        pages[module_name.rsplit(".", 1)[-1] + ".md"] = render_package(module_name)
    problems = []
    for name, content in pages.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"missing page: {name}")
            continue
        with open(path) as handle:
            if handle.read() != content:
                problems.append(f"stale page: {name}")
    committed = {
        name for name in os.listdir(out_dir) if name.endswith(".md")
    } if os.path.isdir(out_dir) else set()
    for name in sorted(committed - set(pages)):
        problems.append(f"orphan page: {name}")
    return problems


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output directory (default: docs/reference)")
    parser.add_argument("--check", action="store_true",
                        help="verify the committed tree matches; write nothing")
    args = parser.parse_args(argv)
    if args.check:
        problems = check(args.out)
        if problems:
            for problem in problems:
                print(f"api-reference drift: {problem}", file=sys.stderr)
            print("regenerate with: PYTHONPATH=src python tools/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        print(f"api reference in sync ({args.out})")
        return 0
    pages = generate(args.out)
    print(f"wrote {len(pages)} page(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
