"""Typed design-space definition.

HyperMapper describes a search space as real, integer, ordinal and
categorical parameters; Homunculus generates such a space from the Alchemy
program.  :class:`DesignSpace` holds it: it samples configurations,
validates them, and encodes them as numeric vectors for the tree-based
surrogate (categoricals become level indices, which is the natural
encoding for axis-aligned splits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import DesignSpaceError


@dataclass(frozen=True)
class Real:
    """A continuous parameter in ``[low, high]``."""

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise DesignSpaceError(
                f"Real {self.name!r} needs low < high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator):
        return float(rng.uniform(self.low, self.high))

    def contains(self, value: Any) -> bool:
        return isinstance(value, (int, float)) and self.low <= float(value) <= self.high

    def encode(self, value: Any) -> float:
        return float(value)


@dataclass(frozen=True)
class Integer:
    """An integer parameter in ``[low, high]`` (inclusive)."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise DesignSpaceError(
                f"Integer {self.name!r} needs low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator):
        return int(rng.integers(self.low, self.high + 1))

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
            and self.low <= int(value) <= self.high
        )

    def encode(self, value: Any) -> float:
        return float(value)


@dataclass(frozen=True)
class Ordinal:
    """A parameter over an ordered tuple of numeric or string levels."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise DesignSpaceError(f"Ordinal {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise DesignSpaceError(f"Ordinal {self.name!r} has duplicate values")

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(len(self.values)))]

    def contains(self, value: Any) -> bool:
        return value in self.values

    def encode(self, value: Any) -> float:
        # Rank encoding preserves order for the surrogate's splits.
        return float(self.values.index(value))


@dataclass(frozen=True)
class Categorical:
    """An unordered set of levels."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise DesignSpaceError(f"Categorical {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise DesignSpaceError(f"Categorical {self.name!r} has duplicate values")

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(len(self.values)))]

    def contains(self, value: Any) -> bool:
        return value in self.values

    def encode(self, value: Any) -> float:
        return float(self.values.index(value))


Parameter = "Real | Integer | Ordinal | Categorical"


@dataclass
class DesignSpace:
    """An ordered collection of named parameters.

    Configurations are plain dicts ``{name: value}``; the space validates
    them, samples new ones, and encodes them to numeric vectors for the
    surrogate model.
    """

    parameters: list = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise DesignSpaceError(f"duplicate parameter names in {names}")
        self._by_name = {p.name: p for p in self.parameters}

    # -- basic introspection ------------------------------------------------
    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str):
        try:
            return self._by_name[name]
        except KeyError:
            raise DesignSpaceError(f"unknown parameter {name!r}") from None

    # -- sampling and validation --------------------------------------------
    def sample(self, rng: np.random.Generator, n: int = 1) -> list[dict]:
        """Draw ``n`` uniform configurations."""
        return [{p.name: p.sample(rng) for p in self.parameters} for _ in range(n)]

    def validate(self, config: dict) -> None:
        """Raise :class:`DesignSpaceError` unless ``config`` is in the space."""
        missing = set(self.names) - set(config)
        extra = set(config) - set(self.names)
        if missing:
            raise DesignSpaceError(f"config missing parameters: {sorted(missing)}")
        if extra:
            raise DesignSpaceError(f"config has unknown parameters: {sorted(extra)}")
        for p in self.parameters:
            if not p.contains(config[p.name]):
                raise DesignSpaceError(
                    f"value {config[p.name]!r} out of range for parameter {p.name!r}"
                )

    def contains(self, config: dict) -> bool:
        """``True`` iff :meth:`validate` would pass."""
        try:
            self.validate(config)
        except DesignSpaceError:
            return False
        return True

    # -- encoding for the surrogate ------------------------------------------
    def encode(self, config: dict) -> np.ndarray:
        """Encode one configuration as a numeric feature vector."""
        self.validate(config)
        return np.array([p.encode(config[p.name]) for p in self.parameters])

    def encode_many(self, configs: list[dict]) -> np.ndarray:
        """Encode a batch of configurations as a 2-D array."""
        return np.stack([self.encode(c) for c in configs]) if configs else np.empty((0, len(self)))

    def key(self, config: dict) -> tuple:
        """A hashable identity for deduplicating evaluations."""
        return tuple(config[name] for name in self.names)
