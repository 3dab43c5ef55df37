"""Shard planning: slice a search into machine-independent work units.

The Figure-2 flow is embarrassingly parallel one level above the
evaluation pool: every (model, algorithm-family) search is an
independent BO loop whose seed derives from *indices*, never from
execution order.  A :class:`WorkUnit` names one such loop — plus a
``start`` index for multi-start search — and a :class:`ShardSpec` is the
launcher task that carries one unit to a worker.

Because seeds derive from ``(model index, family index, start)``, the
schedule is **latency-only**: any shard count, any launcher, any
machine assignment produces bit-identical unit histories, so the merged
run equals the serial one.

Example::

    units = plan_units(spec)                  # enumerate the BO loops
    tasks = plan_tasks(units, n_shards=4)     # one task per loop
    results = [run_shard(spec, t) for t in tasks]    # anywhere, any order
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.candidates import select_candidates
from repro.core.compiler import family_search_seed, model_search_seed
from repro.errors import SpecificationError
from repro.rng import derive

from repro.distrib.runspec import RunSpec

__all__ = [
    "WorkUnit",
    "ShardSpec",
    "plan_units",
    "plan_tasks",
    "unit_family_seed",
    "unit_model_seed",
]

#: Salt spacing between multi-start trajectories of one family.  Far
#: larger than any family index so start streams can never collide with
#: the serial family-seed derivation (``1000 + family_index``).
_START_STRIDE = 0x10_0000


def unit_model_seed(spec: RunSpec, model_index: int) -> int:
    """The model-search seed for one entry, honoring explicit overrides."""
    entry = spec.models[model_index]
    if entry.seed is not None:
        return int(entry.seed)
    return model_search_seed(spec.seed, model_index)


def unit_family_seed(model_seed: int, family_index: int, start: int):
    """The BO seed for one (family, start) trajectory.

    Start 0 reproduces the serial :func:`repro.generate` derivation
    bit for bit; starts > 0 are salted far away from every family index
    so multi-start trajectories are independent of each other and of
    every serial search.
    """
    if start == 0:
        return family_search_seed(model_seed, family_index)
    return derive(int(model_seed), 1000 + int(family_index) + start * _START_STRIDE)


@dataclass(frozen=True)
class WorkUnit:
    """One independent BO loop: a (model, family, start) triple."""

    model_index: int
    model_name: str
    family_index: int
    algorithm: str
    start: int = 0

    def to_dict(self) -> dict:
        return {
            "model_index": self.model_index,
            "model_name": self.model_name,
            "family_index": self.family_index,
            "algorithm": self.algorithm,
            "start": self.start,
        }

    @staticmethod
    def from_dict(doc: dict) -> "WorkUnit":
        return WorkUnit(
            model_index=int(doc["model_index"]),
            model_name=doc["model_name"],
            family_index=int(doc["family_index"]),
            algorithm=doc["algorithm"],
            start=int(doc.get("start", 0)),
        )


@dataclass
class ShardSpec:
    """The slice of the unit list one worker executes.

    ``attempt`` is the retry generation: the driver re-posts a failed
    task as a copy with ``attempt + 1``, and launchers namespace task
    names by it (``unit-0003.a1``), so no attempt's queue entries can
    mask another's.  Attempt never feeds any seed derivation — a retry
    reproduces the original trajectory bit for bit.
    """

    index: int
    n_shards: int
    units: list = field(default_factory=list)
    attempt: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_shards": self.n_shards,
            "units": [u.to_dict() for u in self.units],
            "attempt": self.attempt,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ShardSpec":
        return ShardSpec(
            index=int(doc["index"]),
            n_shards=int(doc["n_shards"]),
            units=[WorkUnit.from_dict(u) for u in doc.get("units", [])],
            attempt=int(doc.get("attempt", 0)),
        )


def plan_units(spec: RunSpec, datasets: "dict | None" = None) -> list:
    """Enumerate every (model, family, start) BO loop of a run.

    Materializes each model's dataset to run candidate selection — the
    same prefilter the serial compiler applies — so shards never receive
    families the platform cannot host.  Pass ``datasets`` (model index
    -> :class:`~repro.datasets.base.Dataset`) to reuse already-loaded
    arrays; the dict is also filled in as a side effect, letting the
    caller reuse the loads for merge-time rebuilds.
    """
    datasets = {} if datasets is None else datasets
    for model_index, entry in enumerate(spec.models):
        if model_index not in datasets:
            datasets[model_index] = entry.dataset.materialize()
    platform = spec.build_platform(datasets=datasets)
    backend = platform.backend()
    constraints = platform.constraints()
    limits = constraints.get("resources", {})
    units: list = []
    for model_index, entry in enumerate(spec.models):
        dataset = datasets[model_index]
        model = entry.to_model(dataset)
        candidates = select_candidates(model, dataset, backend, limits)
        for family_index, algorithm in enumerate(candidates):
            for start in range(spec.starts):
                units.append(
                    WorkUnit(
                        model_index=model_index,
                        model_name=entry.name,
                        family_index=family_index,
                        algorithm=algorithm,
                        start=start,
                    )
                )
    return units


def plan_tasks(units: list, n_shards: int) -> list:
    """Turn the unit list into launcher tasks.

    Emits one single-unit :class:`ShardSpec` per BO loop, indexed by
    unit position.  Any launcher becomes self-balancing — a pool of
    ``n_shards`` workers pulls the next unit the moment one finishes, so
    a heavy family (dnn) never long-poles a worker stuck behind a
    pre-assigned group — and a retry re-runs one loop.  ``n_shards``
    bounds *concurrency* (pool width, subprocess count, drainers), not
    the task count.
    """
    if n_shards < 1:
        raise SpecificationError(f"n_shards must be >= 1, got {n_shards}")
    if not units:
        raise SpecificationError("cannot schedule an empty unit list")
    return [
        ShardSpec(index=i, n_shards=len(units), units=[unit])
        for i, unit in enumerate(units)
    ]
