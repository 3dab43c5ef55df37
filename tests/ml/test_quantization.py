"""Tests for fixed-point quantization."""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.ml.quantization import (
    DEFAULT_FORMAT,
    FixedPointFormat,
    dequantize,
    quantization_error_bound,
    quantize,
    quantize_to_int,
)


class TestFixedPointFormat:
    def test_default_is_q7_8(self):
        assert str(DEFAULT_FORMAT) == "Q7.8"

    def test_scale(self):
        fmt = FixedPointFormat(3, 4)
        assert fmt.scale == pytest.approx(1 / 16)

    def test_range(self):
        fmt = FixedPointFormat(3, 4)
        assert fmt.max_value == pytest.approx((2**7 - 1) / 16)
        assert fmt.min_value == pytest.approx(-(2**7) / 16)

    def test_invalid_formats_raise(self):
        with pytest.raises(BackendError):
            FixedPointFormat(-1, 4)
        with pytest.raises(BackendError):
            FixedPointFormat(0, 0)


class TestQuantize:
    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-100, 100, 1000)
        q = quantize(values)
        bound = quantization_error_bound()
        assert np.max(np.abs(q - values)) <= bound + 1e-12

    def test_saturation(self):
        fmt = FixedPointFormat(3, 4)
        assert quantize(1000.0, fmt) == pytest.approx(fmt.max_value)
        assert quantize(-1000.0, fmt) == pytest.approx(fmt.min_value)

    def test_integer_codes_in_range(self):
        fmt = FixedPointFormat(3, 4)
        codes = quantize_to_int(np.linspace(-50, 50, 100), fmt)
        assert codes.max() <= 2**7 - 1
        assert codes.min() >= -(2**7)

    def test_dequantize_inverts_codes(self):
        values = np.array([0.5, -0.25, 1.0])
        codes = quantize_to_int(values)
        assert np.allclose(dequantize(codes), values)

    def test_idempotent(self):
        values = np.random.default_rng(1).uniform(-10, 10, 100)
        once = quantize(values)
        twice = quantize(once)
        assert np.array_equal(once, twice)

    def test_zero_exact(self):
        assert quantize(0.0) == 0.0
