"""Filesystem and JSON helpers shared across subsystems.

:func:`jsonable` is the one conversion of numpy-laced structures into
plain JSON types that every document writer uses.

:func:`atomic_write_json` is one audited implementation of the
atomic-JSON-write pattern the evaluation cache, the work-queue
protocol, and the shard worker all rely on: serialize to a uniquely
named temporary file in the target directory, then move it into place
with :func:`os.replace`.  Readers can never observe a partial document,
and the last writer wins — exactly the semantics
`EvaluationCache.load` documents for spill merging.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

#: The temporary-file suffix :func:`atomic_write_json` appends:
#: ``<anything>.tmp.<pid>.<thread-id>``.
_TMP_PATTERN = re.compile(r"\.tmp\.\d+\.\d+$")


def jsonable(value, default=None):
    """``value`` as plain JSON types, for every JSON document we write.

    Dict keys become strings, tuples become lists, and numpy scalars
    and arrays become their Python equivalents (``tolist``).  Any other
    non-JSON value goes through ``default`` (as in :func:`json.dump`);
    with no ``default`` it is left for the serializer to reject.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v, default) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, default) for v in value]
    if hasattr(value, "tolist"):
        return jsonable(value.tolist(), default)
    if default is None or isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return default(value)


def atomic_write_json(path: str, doc, indent: int = 1) -> str:
    """Write ``doc`` as JSON to ``path`` atomically.

    The temporary name includes pid and thread id, so concurrent
    writers in threads *or* processes never clobber each other's
    in-flight file.  On failure the temporary file is removed and
    ``path`` is left untouched (either absent or the previous
    complete document).
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(doc, handle, indent=indent)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # a failed write must not leave litter
            os.unlink(tmp)
    return path


def sweep_orphan_tmp(directory: str, older_than_s: float = 0.0) -> list:
    """Delete orphaned :func:`atomic_write_json` temporaries; return them.

    A writer that dies between creating its ``*.tmp.<pid>.<tid>`` file
    and the :func:`os.replace` — SIGKILL, OOM, a reaped shard worker —
    leaves the temporary behind: the ``finally`` cleanup never runs in a
    killed process.  Nothing ever reads those files (readers only see
    the target path), so they are pure litter that accumulates across
    retries.  This sweeps ``directory`` (non-recursively) for files
    matching the temporary-name pattern whose mtime is at least
    ``older_than_s`` seconds old and removes them.

    Call it only at points where every writer into ``directory`` is
    known to have finished or been declared dead — e.g. merge time,
    after all tasks resolved — where ``older_than_s=0`` is safe: a
    straggler that somehow still held an open handle would complete its
    write into a name nothing will ever rename over the merged output.

    Returns the removed paths (sorted), so callers can log the sweep.
    """
    if not directory or not os.path.isdir(directory):
        return []
    cutoff = time.time() - max(0.0, older_than_s)
    removed = []
    for name in sorted(os.listdir(directory)):
        if not _TMP_PATTERN.search(name):
            continue
        path = os.path.join(directory, name)
        try:
            if not os.path.isfile(path) or os.path.getmtime(path) > cutoff:
                continue
            os.unlink(path)
        except OSError:  # a racing sweep already removed it
            continue
        removed.append(path)
    return removed
