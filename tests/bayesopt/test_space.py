"""Tests for typed parameters and the design space."""

import numpy as np
import pytest

from repro.bayesopt.space import Categorical, DesignSpace, Integer, Ordinal, Real
from repro.errors import DesignSpaceError


@pytest.fixture
def space():
    return DesignSpace(
        [
            Integer("layers", 1, 6),
            Real("lr", 0.001, 0.1),
            Ordinal("batch", (16, 32, 64)),
            Categorical("act", ("relu", "tanh")),
        ]
    )


class TestParameters:
    def test_real_bounds_validated(self):
        with pytest.raises(DesignSpaceError):
            Real("x", 1.0, 1.0)

    def test_integer_bounds_validated(self):
        with pytest.raises(DesignSpaceError):
            Integer("x", 5, 4)

    def test_ordinal_needs_values(self):
        with pytest.raises(DesignSpaceError):
            Ordinal("x", ())

    def test_ordinal_rejects_duplicates(self):
        with pytest.raises(DesignSpaceError):
            Ordinal("x", (1, 1))

    def test_contains(self):
        assert Integer("x", 0, 5).contains(3)
        assert not Integer("x", 0, 5).contains(6)
        assert not Integer("x", 0, 5).contains(True)  # bool is not an int here
        assert Real("x", 0.0, 1.0).contains(0.5)
        assert Categorical("x", ("a", "b")).contains("a")
        assert not Categorical("x", ("a", "b")).contains("c")

    def test_ordinal_encode_is_rank(self):
        p = Ordinal("x", (16, 32, 64))
        assert p.encode(32) == 1.0


class TestDesignSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([Integer("x", 0, 1), Real("x", 0.0, 1.0)])

    def test_sample_within_bounds(self, space):
        rng = np.random.default_rng(0)
        for config in space.sample(rng, 50):
            space.validate(config)  # should not raise

    def test_validate_missing_key(self, space):
        with pytest.raises(DesignSpaceError):
            space.validate({"layers": 1})

    def test_validate_extra_key(self, space):
        rng = np.random.default_rng(0)
        config = space.sample(rng, 1)[0]
        config["bogus"] = 1
        with pytest.raises(DesignSpaceError):
            space.validate(config)

    def test_validate_out_of_range(self, space):
        rng = np.random.default_rng(0)
        config = space.sample(rng, 1)[0]
        config["layers"] = 99
        with pytest.raises(DesignSpaceError):
            space.validate(config)

    def test_encode_shape_and_determinism(self, space):
        rng = np.random.default_rng(1)
        configs = space.sample(rng, 5)
        X = space.encode_many(configs)
        assert X.shape == (5, 4)
        assert np.array_equal(X, space.encode_many(configs))

    def test_key_is_hashable_identity(self, space):
        rng = np.random.default_rng(2)
        config = space.sample(rng, 1)[0]
        assert space.key(config) == space.key(dict(config))
        assert isinstance(hash(space.key(config)), int)

    def test_getitem(self, space):
        assert space["layers"].name == "layers"
        with pytest.raises(DesignSpaceError):
            space["nope"]
