"""A persistent, config-keyed cache of black-box evaluations.

Every candidate run in the Figure-2 flow pays the full train -> lower ->
score cost, even when the optimizer resuggests a configuration it has
already tried (common near the end of small discrete spaces).
:class:`EvaluationCache` memoizes those calls: configurations are keyed
by a canonical string of their sorted items, hits return the stored
:class:`~repro.bayesopt.results.Evaluation` instantly, and the whole
table can spill to a versioned JSON file so later searches warm-start
from earlier ones.

The cache is thread-safe, so searches running on threads (the
in-process shard launcher) may share one instance.
"""

from __future__ import annotations

import json
import os
import threading

from repro.bayesopt.results import Evaluation
from repro.errors import DesignSpaceError
from repro.fsio import atomic_write_json

#: File format tag and version, checked on load.
FORMAT = "homunculus-evaluation-cache"
VERSION = 1


def config_key(config: dict) -> str:
    """Canonical order-independent identity for a configuration.

    Mirrors the serialization used by the evaluator's seed salt: sorted
    ``name=repr(value)`` pairs, so two dicts with equal items share a key
    regardless of insertion order.
    """
    return "|".join(f"{k}={config[k]!r}" for k in sorted(config))


class EvaluationCache:
    """In-memory evaluation memo with optional JSON spill.

    Example::

        cache = EvaluationCache(path="spills/ad_dnn.json")  # loads if present
        evaluator = ModelEvaluator(spec, dataset, "svm", backend,
                                   constraints, cache=cache)
        BayesianOptimizer(space, evaluator.evaluate, seed=0).run(budget=20)
        cache.save()                       # atomic write-back to the path
        cache.load("spills/other.json")    # fold in another run (LWW merge)

    Instances pickle (the internal lock is dropped and re-created), so a
    pre-populated cache can ride into another process; note that a
    pickled copy is a snapshot — entries added there do not propagate
    back by themselves.

    Parameters
    ----------
    path:
        optional spill file.  When given and the file exists, entries are
        loaded eagerly; :meth:`save` (with no argument) writes back to it.
    """

    def __init__(self, path: "str | None" = None) -> None:
        self._entries: dict[str, Evaluation] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.path = path
        if path is not None and os.path.exists(path):
            self.load(path)

    def __getstate__(self) -> dict:
        with self._lock:
            state = dict(self.__dict__)
            state["_entries"] = dict(self._entries)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- core mapping --------------------------------------------------------
    def get(self, config: dict) -> "Evaluation | None":
        """Return the cached evaluation for ``config``, or ``None``."""
        key = config_key(config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, config: dict, evaluation: Evaluation) -> None:
        """Store (or overwrite) the evaluation for ``config``."""
        with self._lock:
            self._entries[config_key(config)] = evaluation

    def __contains__(self, config: dict) -> bool:
        with self._lock:
            return config_key(config) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    @property
    def stats(self) -> dict:
        """Hit/miss counters plus current size."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    # -- JSON spill ----------------------------------------------------------
    def save(self, path: "str | None" = None) -> str:
        """Write all entries to ``path`` (default: the constructor path).

        The write is **atomic**: entries are serialized to a temporary
        file in the target directory and moved into place with
        :func:`os.replace`.  Concurrent writers (e.g. two shards of a
        distributed search spilling the same family cache) can therefore
        never interleave partial JSON — a reader always sees one
        writer's complete document, and the last writer wins, matching
        the :meth:`load` merge semantics.
        """
        path = path if path is not None else self.path
        if path is None:
            raise DesignSpaceError("EvaluationCache.save needs a path")
        with self._lock:
            entries = [e.to_dict() for e in self._entries.values()]
        doc = {"format": FORMAT, "version": VERSION, "entries": entries}
        return atomic_write_json(path, doc)

    def load(self, path: "str | None" = None) -> int:
        """Merge entries from ``path``; returns how many were loaded.

        Merge semantics (relied on by multi-spill merging, e.g. a shard
        scheduler combining per-machine spills): entries are folded into
        the current table **last-writer-wins** — when a loaded key
        already exists, the entry from the file loaded *most recently*
        replaces the older one, deterministically.  Within one file,
        later entries win over earlier duplicates for the same reason.
        So ``load(a); load(b)`` keeps ``b``'s version of any conflicting
        configuration, regardless of dict ordering or thread timing
        (the whole merge holds the cache lock).  A malformed entry raises
        :class:`~repro.errors.DesignSpaceError` naming ``path`` and the
        entry, and merges nothing from the file.
        """
        path = path if path is not None else self.path
        if path is None:
            raise DesignSpaceError("EvaluationCache.load needs a path")
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise DesignSpaceError(f"cannot read evaluation cache {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DesignSpaceError(f"malformed evaluation cache {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise DesignSpaceError(f"{path} is not a Homunculus evaluation cache")
        if doc.get("version") != VERSION:
            raise DesignSpaceError(
                f"unsupported evaluation-cache version {doc.get('version')!r}"
            )
        entries = doc.get("entries", [])
        if not isinstance(entries, list):
            raise DesignSpaceError(f"{path}: entries must be a list")
        loaded = [Evaluation.from_dict(entry, f"{path}: entries[{i}]")
                  for i, entry in enumerate(entries)]
        with self._lock:
            for evaluation in loaded:
                self._entries[config_key(evaluation.config)] = evaluation
        return len(loaded)

