"""The ``@DataLoader`` decorator.

Wraps a user function that loads and preprocesses a dataset, deferring the
actual load until the compiler needs it and validating the returned
structure (the paper's Figure 3 contract).
"""

from __future__ import annotations

from typing import Callable

from repro.datasets.base import Dataset
from repro.errors import SpecificationError


class BoundDataLoader:
    """A validated, lazily-evaluated dataset loader."""

    def __init__(self, fn: Callable[[], dict]) -> None:
        if not callable(fn):
            raise SpecificationError("@DataLoader must wrap a callable")
        self._fn = fn
        self._cache: "Dataset | None" = None
        self.__name__ = getattr(fn, "__name__", "data_loader")

    def load(self, name: str = "dataset") -> Dataset:
        """Invoke the user function (once) and validate its structure."""
        if self._cache is None:
            if self._fn is None:
                raise SpecificationError(
                    "this DataLoader has neither a function nor a "
                    "materialized dataset"
                )
            raw = self._fn()
            if isinstance(raw, Dataset):
                self._cache = raw
            else:
                self._cache = Dataset.from_loader_dict(raw, name=name)
        return self._cache

    def __call__(self) -> dict:
        """Allow the wrapped function to still be called directly."""
        if self._fn is None:
            raise SpecificationError(
                "this DataLoader was unpickled from a materialized snapshot; "
                "the original loader function did not survive serialization"
            )
        return self._fn()

    # -- pickling ----------------------------------------------------------
    #
    # Loader functions are usually closures over in-memory datasets, which
    # ``pickle`` cannot serialize.  A loader therefore pickles as its
    # *materialized dataset*: ``__getstate__`` forces the (cached) load and
    # drops the function, so model specs travel to other processes carrying
    # concrete arrays instead of code.
    def __getstate__(self) -> dict:
        self.load(name=self.__name__)
        return {"_fn": None, "_cache": self._cache, "__name__": self.__name__}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def DataLoader(fn: Callable[[], dict]) -> BoundDataLoader:
    """Decorator: mark ``fn`` as a Homunculus dataset loader.

    ``fn`` must return either a :class:`~repro.datasets.base.Dataset` or the
    dict structure from the paper::

        {"data": {"train": ..., "test": ...},
         "labels": {"train": ..., "test": ...}}
    """
    return BoundDataLoader(fn)
