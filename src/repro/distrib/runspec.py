"""Serializable run descriptions for distributed search.

A :func:`repro.generate` call closes over live Python objects — model
specs wrap data-loader closures, platforms wrap backend instances — so a
run cannot be handed to another process (let alone another machine) as
is.  :class:`RunSpec` is the wire format that can: a plain-JSON
description of *what to search* (target platform, constraints, models,
budgets, seeds) from which any worker rebuilds the exact same
:class:`~repro.alchemy.platforms.PlatformSpec` and datasets.

Datasets travel by reference, not by value.  A :class:`DatasetRef` names
one of three reproducible sources:

* ``app`` — a registered loader (``ad``/``tc``/``bd``) plus its keyword
  arguments; the loaders are deterministic functions of their arguments,
  so every machine materializes identical arrays,
* ``csv`` — a train/test CSV pair on a shared filesystem (the paper's
  Figure-3 file format),
* ``npz`` — an array snapshot written by :func:`save_dataset_npz`; the
  escape hatch for synthetic or in-memory datasets.

Example::

    spec = RunSpec(
        target="tofino",
        models=[ModelEntry(name="tc", metric="f1",
                           algorithms=("decision_tree",),
                           dataset=DatasetRef.for_app("tc", seed=11))],
        budget=8, seed=0,
    )
    rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    platform = rebuilt.build_platform()     # ready for repro.generate
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.alchemy.dataloader import DataLoader
from repro.alchemy.model import SUPPORTED_METRICS, Model
from repro.alchemy.platforms import PlatformSpec
from repro.datasets import load_botnet, load_csv_dataset, load_iot, load_nslkdd
from repro.datasets.base import Dataset
from repro.errors import SpecificationError
from repro.wire import Fields

__all__ = [
    "APP_LOADERS",
    "APP_SPECS",
    "AppSpec",
    "DatasetRef",
    "ModelEntry",
    "RunSpec",
    "save_dataset_npz",
    "load_dataset_npz",
]


@dataclass(frozen=True)
class AppSpec:
    """One built-in application and everything keyed on it.

    ``seed_offset`` keeps each app's dataset stream independent of the
    others' for one run seed.  ``table2_quick``/``table2_full`` are its
    Table-2 dataset sizes.  Serial and sharded paths both load through
    ``loader`` with the same arguments, so they materialize identical
    arrays.
    """

    app: str
    model: str
    loader: object = field(repr=False)
    seed_offset: int
    table2_quick: dict = field(hash=False)
    table2_full: dict = field(hash=False)

    def ref(self, seed: int, **sizes) -> "DatasetRef":
        """A :class:`DatasetRef` to the app's dataset for run seed ``seed``."""
        return DatasetRef.for_app(self.app, seed=seed + self.seed_offset,
                                  **sizes)

    def table2_ref(self, seed: int, quick: bool) -> "DatasetRef":
        """:meth:`ref` at the app's quick or full Table-2 size."""
        return self.ref(seed, **(self.table2_quick if quick else self.table2_full))


#: The built-in applications, by app key.
APP_SPECS = {
    spec.app: spec for spec in (
        AppSpec("ad", "anomaly_detection", load_nslkdd, 7,
                {"n_train": 1600, "n_test": 600},
                {"n_train": 2400, "n_test": 800}),
        AppSpec("tc", "traffic_classification", load_iot, 11,
                {"n_train": 1600, "n_test": 600},
                {"n_train": 2500, "n_test": 900}),
        AppSpec("bd", "botnet_detection", load_botnet, 13,
                {"n_train_flows": 300, "n_test_flows": 120},
                {"n_train_flows": 500, "n_test_flows": 200}),
    )
}

#: Registered named dataset loaders a :class:`DatasetRef` may point at.
#: Each is a deterministic function of its keyword arguments.
APP_LOADERS = {app: spec.loader for app, spec in APP_SPECS.items()}


def save_dataset_npz(dataset: Dataset, path: str) -> str:
    """Snapshot a :class:`~repro.datasets.base.Dataset` to an ``.npz`` file.

    The inverse of :func:`load_dataset_npz`; metadata is stored as JSON.
    Used to ship synthetic/in-memory datasets to shard workers that
    cannot re-derive them from a loader name.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    np.savez(
        path,
        train_x=dataset.train_x,
        train_y=dataset.train_y,
        test_x=dataset.test_x,
        test_y=dataset.test_y,
        feature_names=np.array(list(dataset.feature_names), dtype=str),
        name=np.array(dataset.name),
        metadata=np.array(json.dumps(dataset.metadata, sort_keys=True)),
    )
    return path


def load_dataset_npz(path: str) -> Dataset:
    """Load a dataset snapshot written by :func:`save_dataset_npz`."""
    with np.load(path, allow_pickle=False) as doc:
        return Dataset(
            train_x=doc["train_x"],
            train_y=doc["train_y"],
            test_x=doc["test_x"],
            test_y=doc["test_y"],
            feature_names=tuple(str(n) for n in doc["feature_names"]),
            name=str(doc["name"]),
            metadata=json.loads(str(doc["metadata"])),
        )


@dataclass(frozen=True)
class DatasetRef:
    """A JSON-able pointer to a reproducible dataset source."""

    kind: str
    app: "str | None" = None
    kwargs: tuple = ()  # sorted (key, value) pairs, hashable for frozen use
    train: "str | None" = None
    test: "str | None" = None
    name: "str | None" = None
    path: "str | None" = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def for_app(app: str, **kwargs) -> "DatasetRef":
        """Reference a registered loader, e.g. ``DatasetRef.for_app("ad", seed=7)``."""
        if app not in APP_LOADERS:
            raise SpecificationError(
                f"unknown app {app!r}; registered: {sorted(APP_LOADERS)}"
            )
        return DatasetRef(kind="app", app=app, kwargs=tuple(sorted(kwargs.items())))

    @staticmethod
    def for_csv(train: str, test: str, name: str = "csv-dataset") -> "DatasetRef":
        return DatasetRef(kind="csv", train=train, test=test, name=name)

    @staticmethod
    def for_npz(path: str) -> "DatasetRef":
        return DatasetRef(kind="npz", path=path)

    @staticmethod
    def snapshot(dataset: Dataset, path: str) -> "DatasetRef":
        """Spill ``dataset`` to ``path`` and return the reference to it."""
        return DatasetRef.for_npz(save_dataset_npz(dataset, path))

    # -- materialization ----------------------------------------------------
    def materialize(self) -> Dataset:
        """Load the referenced dataset in this process."""
        if self.kind == "app":
            return APP_LOADERS[self.app](**dict(self.kwargs))
        if self.kind == "csv":
            return load_csv_dataset(self.train, self.test, name=self.name)
        if self.kind == "npz":
            return load_dataset_npz(self.path)
        raise SpecificationError(f"unknown DatasetRef kind {self.kind!r}")

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        if self.kind == "app":
            return {"kind": "app", "app": self.app, "kwargs": dict(self.kwargs)}
        if self.kind == "csv":
            return {"kind": "csv", "train": self.train, "test": self.test,
                    "name": self.name}
        if self.kind == "npz":
            return {"kind": "npz", "path": self.path}
        raise SpecificationError(f"unknown DatasetRef kind {self.kind!r}")

    @staticmethod
    def from_dict(doc: dict) -> "DatasetRef":
        """Rebuild a reference; a malformed ``doc`` raises
        :class:`SpecificationError` naming the field."""
        every_key = {key for keys in _REF_KEYS.values() for key in keys}
        kind = Fields(doc, "", every_key).text("kind")
        if kind not in _REF_KEYS:
            raise SpecificationError(f"unknown DatasetRef kind {kind!r}")
        fields = Fields(doc, "", _REF_KEYS[kind])
        if kind == "app":
            return DatasetRef.for_app(fields.text("app"),
                                      **fields.mapping("kwargs", {}))
        if kind == "csv":
            return DatasetRef.for_csv(fields.text("train"), fields.text("test"),
                                      name=fields.text("name", "csv-dataset",
                                                       none=True))
        return DatasetRef.for_npz(fields.text("path"))


#: The keys each :class:`DatasetRef` kind's wire document may hold.
_REF_KEYS = {
    "app": ("kind", "app", "kwargs"),
    "csv": ("kind", "train", "test", "name"),
    "npz": ("kind", "path"),
}


@dataclass
class ModelEntry:
    """One scheduled model of a distributable run.

    ``seed`` is an optional explicit model-search seed; when ``None`` the
    serial derivation applies (``model_search_seed(run.seed, index)``).
    Explicit seeds let callers reproduce searches that ran at a different
    model index — e.g. folding three single-model runs into one
    distributed run without changing any trajectory.
    """

    name: str
    dataset: DatasetRef
    metric: str = "f1"
    algorithms: tuple = ()
    throughput: "float | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.metric not in SUPPORTED_METRICS:
            raise SpecificationError(
                f"unsupported metric {self.metric!r}; supported: {SUPPORTED_METRICS}"
            )
        self.algorithms = tuple(self.algorithms)

    def to_model(self, dataset: Dataset) -> Model:
        """Build the Alchemy :class:`~repro.alchemy.model.Model` spec."""

        @DataLoader
        def loader():
            return dataset

        return Model(
            name=self.name,
            optimization_metric=[self.metric],
            algorithm=list(self.algorithms),
            data_loader=loader,
            throughput=self.throughput,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "metric": self.metric,
            "algorithms": list(self.algorithms),
            "throughput": self.throughput,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelEntry":
        """Rebuild an entry; a malformed ``doc`` raises
        :class:`SpecificationError` naming the field."""
        fields = Fields(doc, "", ("name", "dataset", "metric", "algorithms",
                                  "throughput", "seed"))
        return ModelEntry(
            name=fields.text("name"),
            dataset=fields.nested("dataset", DatasetRef.from_dict),
            metric=fields.text("metric", "f1"),
            algorithms=fields.names("algorithms", ()),
            throughput=fields.number("throughput", None, none=True),
            seed=fields.integer("seed", None, none=True),
        )


@dataclass
class RunSpec:
    """Everything a shard worker needs to reproduce its slice of a search.

    The scalar knobs mirror :func:`repro.generate`; ``starts`` is the
    distributed extension — each (model, family) search is repeated with
    ``starts`` independently seeded multi-start trajectories, and the
    merge keeps the best.

    Model fusion is deliberately unsupported: fusing crosses model
    boundaries, which is exactly the coupling sharding removes.
    """

    target: str
    models: list
    performance: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    budget: int = 20
    warmup: int = 5
    train_epochs: int = 30
    seed: int = 0
    starts: int = 1
    cache_dir: "str | None" = None

    def __post_init__(self) -> None:
        if not self.models:
            raise SpecificationError("RunSpec needs at least one model")
        names = [entry.name for entry in self.models]
        if len(names) != len(set(names)):
            raise SpecificationError(f"duplicate model names: {names}")
        if self.budget < 1:
            raise SpecificationError(f"budget must be >= 1, got {self.budget}")
        if self.starts < 1:
            raise SpecificationError(f"starts must be >= 1, got {self.starts}")

    # -- reconstruction -----------------------------------------------------
    def build_platform(self, datasets: "dict | None" = None) -> PlatformSpec:
        """Rebuild the :class:`PlatformSpec` this spec describes.

        ``datasets`` optionally maps model index -> materialized
        :class:`Dataset` to avoid re-loading (workers memoize loads).
        Models are scheduled in list order, which is what aligns the
        serial ``generate`` model-seed derivation with shard planning.
        """
        platform = PlatformSpec(self.target)
        if self.performance:
            platform.constrain(performance=dict(self.performance))
        if self.resources:
            platform.constrain(resources=dict(self.resources))
        for index, entry in enumerate(self.models):
            dataset = (datasets or {}).get(index)
            if dataset is None:
                dataset = entry.dataset.materialize()
            platform.schedule(entry.to_model(dataset))
        return platform

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "models": [entry.to_dict() for entry in self.models],
            "performance": dict(self.performance),
            "resources": dict(self.resources),
            "budget": self.budget,
            "warmup": self.warmup,
            "train_epochs": self.train_epochs,
            "seed": self.seed,
            "starts": self.starts,
            "cache_dir": self.cache_dir,
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunSpec":
        """Rebuild a spec; a malformed ``doc`` (missing key, wrong type,
        unknown key) raises :class:`SpecificationError` naming the field."""
        fields = Fields(doc, "run spec", (
            "target", "models", "performance", "resources", "budget",
            "warmup", "train_epochs", "seed", "starts", "cache_dir",
        ))
        return RunSpec(
            target=fields.text("target"),
            models=fields.each("models", ModelEntry.from_dict),
            performance=fields.numbers("performance", {}),
            resources=fields.numbers("resources", {}),
            budget=fields.integer("budget", 20),
            warmup=fields.integer("warmup", 5),
            train_epochs=fields.integer("train_epochs", 30),
            seed=fields.integer("seed", 0),
            starts=fields.integer("starts", 1),
            cache_dir=fields.text("cache_dir", None, none=True),
        )
