"""The Taurus simulator's float64 dense stages are exact.

A dense stage whose accumulator provably stays below 2**53 runs as a
float64 (BLAS) matmul; every other stage keeps the int64 matmul.  On
random programs, including a wide Q15.16 format whose large-weight
stages must take the int64 path, the float path gives the same integer
codes as the int64 path, and the whole simulator matches an integer
reference of the pipeline (per-column shifts, int64 accumulate).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.taurus.ir import (
    INPUT_FRACTION_BITS,
    DecisionStage,
    DenseStage,
    MapReduceProgram,
    ScaleStage,
)
from repro.backends.taurus.simulator import TaurusSimulator
from repro.ml.quantization import FixedPointFormat

FORMATS = (FixedPointFormat(7, 8), FixedPointFormat(3, 4),
           FixedPointFormat(15, 16))


def input_codes(program: MapReduceProgram, X: np.ndarray) -> np.ndarray:
    """Raw header codes before a scale stage, else Qm.n codes."""
    fmt = program.fmt
    if isinstance(program.stages[0], ScaleStage):
        return np.clip(np.round(X * 2**INPUT_FRACTION_BITS),
                       -(2**40), 2**40 - 1).astype(np.int64)
    reach = 2 ** (fmt.integer_bits + fmt.fraction_bits)
    return np.clip(np.round(X / fmt.scale).astype(np.int64), -reach, reach - 1)


def reference_codes(program: MapReduceProgram, X: np.ndarray) -> np.ndarray:
    """The pipeline in plain int64 arithmetic, one shift per column."""
    fmt = program.fmt
    lo = -(2 ** (fmt.integer_bits + fmt.fraction_bits))
    hi = 2 ** (fmt.integer_bits + fmt.fraction_bits) - 1
    codes = input_codes(program, X)
    for stage in program.stages:
        if isinstance(stage, ScaleStage):
            product = (codes - stage.mean_codes) * stage.mant_codes
            out = np.empty_like(product)
            for j, shift in enumerate(stage.shift_codes.tolist()):
                out[:, j] = (product[:, j] >> shift if shift >= 0
                             else product[:, j] << -shift)
            codes = np.clip(out, lo, hi)
        elif isinstance(stage, DenseStage):
            acc = codes @ stage.weight_codes.astype(np.int64)
            acc = (acc >> fmt.fraction_bits) + stage.bias_codes
            if stage.activation == "relu":
                acc = np.maximum(acc, 0)
            elif stage.activation == "sign":
                one = 1 << fmt.fraction_bits
                acc = np.where(acc >= 0, one, -one)
            codes = np.clip(acc, lo, hi)
    return codes


@st.composite
def programs(draw):
    fmt = draw(st.sampled_from(FORMATS))
    value_bits = fmt.integer_bits + fmt.fraction_bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_in = draw(st.integers(1, 40))
    stages = []
    if draw(st.booleans()):
        stages.append(ScaleStage(
            mean_codes=rng.integers(-2**12, 2**12, n_in),
            mant_codes=rng.integers(2**15, 2**16, n_in),
            shift_codes=rng.integers(-6, 30, n_in),
        ))
    width = n_in
    for _ in range(draw(st.integers(1, 3))):
        out = draw(st.integers(1, 16))
        bits = draw(st.integers(0, value_bits))
        stages.append(DenseStage(
            weight_codes=rng.integers(-2**bits, 2**bits, (width, out),
                                      endpoint=True),
            bias_codes=rng.integers(-2**value_bits, 2**value_bits, out),
            activation=draw(st.sampled_from(("relu", "linear", "sign"))),
        ))
        width = out
    kind = "threshold" if width == 1 else "argmax"
    stages.append(DecisionStage(kind=kind, n_outputs=width))
    program = MapReduceProgram(name="random", stages=stages, fmt=fmt)
    scale = 2.0 ** (fmt.integer_bits + 1)
    X = rng.uniform(-scale, scale, (draw(st.integers(1, 64)), n_in))
    if isinstance(stages[0], ScaleStage):
        X = np.round(X * 2**10)  # raw header values
    return program, X


@settings(max_examples=80, deadline=None)
@given(case=programs())
def test_float_dense_stages_equal_the_int64_path(case):
    program, X = case
    simulator = TaurusSimulator(program)
    fmt = program.fmt
    reach = 2 ** (fmt.integer_bits + fmt.fraction_bits)
    # Stage by stage: whenever the float path is taken, it is exact.
    codes = input_codes(program, X)
    for index, stage in enumerate(program.stages):
        if isinstance(stage, ScaleStage):
            codes = simulator._run_scale(stage, codes)
        elif isinstance(stage, DenseStage):
            float_weights = simulator._float_weights[index]
            bound = stage.in_dim * reach * int(np.abs(stage.weight_codes).max())
            assert (float_weights is not None) == (bound < 2**53)
            exact = simulator._run_dense(stage, codes, None)
            if float_weights is not None:
                assert np.array_equal(
                    simulator._run_dense(stage, codes, float_weights), exact)
            codes = exact
    reference = reference_codes(program, X)
    assert np.array_equal(codes, reference)
    decision = program.stages[-1]
    expected = ((reference[:, 0] >= 0).astype(int) if decision.kind == "threshold"
                else reference.argmax(axis=1))
    assert np.array_equal(simulator.predict(X), expected)


def test_wide_format_takes_the_int64_path():
    # Q15.16 codes reach 2**31; 30 inputs of weight 2**20 pass 2**53.
    fmt = FixedPointFormat(15, 16)
    wide = DenseStage(weight_codes=np.full((30, 2), 2**20, dtype=np.int64),
                      bias_codes=np.zeros(2, dtype=np.int64))
    narrow = DenseStage(weight_codes=np.full((2, 1), 3, dtype=np.int64),
                        bias_codes=np.zeros(1, dtype=np.int64))
    program = MapReduceProgram(
        name="wide", stages=[wide, narrow, DecisionStage("threshold", 1)],
        fmt=fmt)
    simulator = TaurusSimulator(program)
    assert simulator._float_weights[0] is None
    assert simulator._float_weights[1] is not None
    X = np.full((4, 30), 2.0**15)  # saturates every input code
    assert np.array_equal(simulator.predict(X), [1, 1, 1, 1])


def test_bound_is_strict_at_two_to_the_53():
    # in_dim * 2**(m+n) * max|W| == 2**53 must keep the int64 matmul.
    fmt = FixedPointFormat(15, 16)
    at_bound = DenseStage(weight_codes=np.full((4, 1), 2**20, dtype=np.int64),
                          bias_codes=np.zeros(1, dtype=np.int64))
    below = DenseStage(weight_codes=np.full((3, 1), 2**20, dtype=np.int64),
                       bias_codes=np.zeros(1, dtype=np.int64))
    for stage, takes_float in ((at_bound, False), (below, True)):
        program = MapReduceProgram(
            name="edge", stages=[stage, DecisionStage("threshold", 1)], fmt=fmt)
        float_weights = TaurusSimulator(program)._float_weights[0]
        assert (float_weights is not None) is takes_float
