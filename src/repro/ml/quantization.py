"""Fixed-point quantization for data-plane deployment.

Programmable switches compute in narrow fixed-point formats; lowering a
trained model replaces float weights with Qm.n integers.  The backends use
this module both to emit integer constants into generated code and to
predict the post-quantization accuracy the optimization core scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BackendError


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed Qm.n fixed-point format (1 sign bit + m integer + n fraction)."""

    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise BackendError("fixed-point bit widths must be non-negative")
        if self.integer_bits + self.fraction_bits == 0:
            raise BackendError("fixed-point format needs at least one value bit")

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        return (2 ** (self.integer_bits + self.fraction_bits) - 1) * self.scale

    @property
    def min_value(self) -> float:
        return -(2 ** (self.integer_bits + self.fraction_bits)) * self.scale

    def __str__(self) -> str:
        return f"Q{self.integer_bits}.{self.fraction_bits}"


#: The 16-bit format Taurus-style pipelines use for weights and activations.
DEFAULT_FORMAT = FixedPointFormat(integer_bits=7, fraction_bits=8)


def quantize_to_int(values, fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Round ``values`` to the nearest representable integer code (saturating)."""
    values = np.asarray(values, dtype=float)
    lo = -(2 ** (fmt.integer_bits + fmt.fraction_bits))
    hi = 2 ** (fmt.integer_bits + fmt.fraction_bits) - 1
    codes = np.round(values / fmt.scale)
    return np.clip(codes, lo, hi).astype(np.int64)


def dequantize(codes, fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Map integer codes back to their float values."""
    return np.asarray(codes, dtype=float) * fmt.scale


def quantize(values, fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Round-trip values through the fixed-point grid (saturating round)."""
    return dequantize(quantize_to_int(values, fmt), fmt)


def quantization_error_bound(fmt: FixedPointFormat = DEFAULT_FORMAT) -> float:
    """Worst-case rounding error for in-range values (half an LSB)."""
    return fmt.scale / 2.0
