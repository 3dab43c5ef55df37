"""The Dataset container shared by all generators and the Alchemy frontend."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError


@dataclass
class Dataset:
    """A train/test split with labels and metadata.

    ``from_loader_dict`` adopts the structure the paper's ``@DataLoader``
    functions return (Figure 3):
    ``{"data": {"train", "test"}, "labels": {"train", "test"}}``.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    feature_names: tuple = ()
    name: str = "dataset"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=float)
        self.test_x = np.asarray(self.test_x, dtype=float)
        self.train_y = np.asarray(self.train_y)
        self.test_y = np.asarray(self.test_y)
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise DatasetError("feature arrays must be 2-D")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise DatasetError("train features/labels disagree on sample count")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise DatasetError("test features/labels disagree on sample count")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise DatasetError("train/test disagree on feature count")
        if self.feature_names and len(self.feature_names) != self.train_x.shape[1]:
            raise DatasetError(
                f"{len(self.feature_names)} feature names for "
                f"{self.train_x.shape[1]} features"
            )

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_classes(self) -> int:
        labels = np.unique(np.concatenate([self.train_y, self.test_y]))
        return int(labels.size)

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_x.shape[0]

    def content_digest(self, length: int = 12) -> str:
        """Hex digest of the actual array *contents* (not just shapes).

        Keys anything that must distinguish same-shaped datasets with
        different values — e.g. the evaluation-cache spill files, where
        a shape-only key would serve one dataset's cached scores to
        another.  Arrays are hashed in C order with their dtypes, so the
        digest is stable across processes and sessions.  The hash is
        memoized per instance (the cache-key design treats the arrays
        as immutable), so per-family key derivation reuses one pass.
        """
        digest = getattr(self, "_content_digest", None)
        if digest is None:
            hasher = hashlib.md5()
            for array in (self.train_x, self.train_y, self.test_x, self.test_y):
                contiguous = np.ascontiguousarray(array)
                hasher.update(str(contiguous.dtype).encode())
                hasher.update(str(contiguous.shape).encode())
                hasher.update(contiguous.tobytes())
            digest = hasher.hexdigest()
            # Plain attribute, not metadata: metadata dicts are copied
            # into derived datasets (subset_features, split_half) whose
            # contents differ, and must not inherit this digest.
            self._content_digest = digest
        return digest[:length]

    @classmethod
    def from_loader_dict(cls, loaded: dict, name: str = "dataset") -> "Dataset":
        """Validate and adopt a loader-returned structure."""
        try:
            return cls(
                train_x=loaded["data"]["train"],
                train_y=loaded["labels"]["train"],
                test_x=loaded["data"]["test"],
                test_y=loaded["labels"]["test"],
                name=name,
            )
        except (KeyError, TypeError) as exc:
            raise DatasetError(
                "loader must return {'data': {'train', 'test'}, "
                f"'labels': {{'train', 'test'}}}}; missing {exc}"
            ) from exc

    def subset_features(self, indices: list[int]) -> "Dataset":
        """Project onto a feature subset (used by IIsy feature pruning)."""
        indices = list(indices)
        if not indices:
            raise DatasetError("feature subset cannot be empty")
        names = (
            tuple(self.feature_names[i] for i in indices) if self.feature_names else ()
        )
        return Dataset(
            train_x=self.train_x[:, indices],
            train_y=self.train_y,
            test_x=self.test_x[:, indices],
            test_y=self.test_y,
            feature_names=names,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def split_half(self, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Random disjoint halves of the training set (model-fusion study).

        Both halves keep the full test set so scores are comparable.
        """
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.n_train)
        mid = self.n_train // 2
        parts = []
        for idx in (order[:mid], order[mid:]):
            parts.append(
                Dataset(
                    train_x=self.train_x[idx],
                    train_y=self.train_y[idx],
                    test_x=self.test_x,
                    test_y=self.test_y,
                    feature_names=self.feature_names,
                    name=f"{self.name}-half",
                    metadata=dict(self.metadata),
                )
            )
        return parts[0], parts[1]
