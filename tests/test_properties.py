"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt.space import Categorical, DesignSpace, Integer, Ordinal, Real
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    precision_score,
    recall_score,
    v_measure_score,
)
from repro.ml.quantization import (
    FixedPointFormat,
    dequantize,
    quantization_error_bound,
    quantize,
    quantize_to_int,
)
from repro.netsim.flowmarker import FlowMarkerSpec, build_flowmarker, fuse_bins
from repro.netsim.flow import Flow
from repro.netsim.packet import Packet

# --------------------------------------------------------------------------- #
# Quantization
# --------------------------------------------------------------------------- #
formats = st.builds(
    FixedPointFormat,
    integer_bits=st.integers(1, 10),
    fraction_bits=st.integers(1, 12),
)


@given(
    fmt=formats,
    values=st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=50
    ),
)
@settings(max_examples=100, deadline=None)
def test_quantization_error_bounded_in_range(fmt, values):
    arr = np.array(values)
    in_range = (arr >= fmt.min_value) & (arr <= fmt.max_value)
    q = quantize(arr, fmt)
    bound = quantization_error_bound(fmt)
    assert np.all(np.abs(q[in_range] - arr[in_range]) <= bound + 1e-12)


@given(
    fmt=formats,
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
)
@settings(max_examples=100, deadline=None)
def test_quantization_always_saturates_to_range(fmt, values):
    q = quantize(np.array(values), fmt)
    assert np.all(q <= fmt.max_value + 1e-12)
    assert np.all(q >= fmt.min_value - 1e-12)


@given(
    fmt=formats,
    values=st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=30
    ),
)
@settings(max_examples=100, deadline=None)
def test_quantization_idempotent(fmt, values):
    arr = np.array(values)
    once = quantize(arr, fmt)
    assert np.array_equal(once, quantize(once, fmt))


@given(fmt=formats, codes=st.lists(st.integers(-1000, 1000), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_dequantize_quantize_round_trip_on_codes(fmt, codes):
    lo = -(2 ** (fmt.integer_bits + fmt.fraction_bits))
    hi = 2 ** (fmt.integer_bits + fmt.fraction_bits) - 1
    arr = np.clip(np.array(codes), lo, hi)
    assert np.array_equal(quantize_to_int(dequantize(arr, fmt), fmt), arr)


# --------------------------------------------------------------------------- #
# Design space
# --------------------------------------------------------------------------- #
@st.composite
def design_spaces(draw):
    params = []
    n = draw(st.integers(1, 5))
    for i in range(n):
        kind = draw(st.sampled_from(["real", "integer", "ordinal", "categorical"]))
        name = f"p{i}"
        if kind == "real":
            lo = draw(st.floats(-100, 99, allow_nan=False))
            hi = draw(st.floats(min_value=lo + 0.1, max_value=lo + 100, allow_nan=False))
            params.append(Real(name, lo, hi))
        elif kind == "integer":
            lo = draw(st.integers(-50, 49))
            hi = draw(st.integers(lo, lo + 100))
            params.append(Integer(name, lo, hi))
        elif kind == "ordinal":
            values = draw(
                st.lists(st.integers(0, 100), min_size=1, max_size=5, unique=True)
            )
            params.append(Ordinal(name, tuple(values)))
        else:
            values = draw(
                st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4,
                         unique=True)
            )
            params.append(Categorical(name, tuple(values)))
    return DesignSpace(params)


@given(space=design_spaces(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_samples_always_validate(space, seed):
    rng = np.random.default_rng(seed)
    for config in space.sample(rng, 10):
        space.validate(config)
        assert space.contains(config)


@given(space=design_spaces(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_encode_dimension_matches_space(space, seed):
    rng = np.random.default_rng(seed)
    configs = space.sample(rng, 3)
    X = space.encode_many(configs)
    assert X.shape == (3, len(space))
    assert np.all(np.isfinite(X))


@given(space=design_spaces())
@settings(max_examples=40, deadline=None)
def test_json_round_trip_preserves_sampling(space):
    rebuilt = DesignSpace.from_json(space.to_json())
    rng = np.random.default_rng(0)
    for config in rebuilt.sample(rng, 5):
        space.validate(config)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
labels = st.lists(st.integers(0, 3), min_size=2, max_size=60)


@given(y=labels)
@settings(max_examples=60, deadline=None)
def test_perfect_prediction_maximizes_metrics(y):
    assert accuracy_score(y, y) == 1.0
    if len(set(y)) > 1:
        assert f1_score(y, y, average="macro") == pytest.approx(1.0)
        assert v_measure_score(y, y) == pytest.approx(1.0)


@given(y_true=labels, seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_metric_ranges(y_true, seed):
    rng = np.random.default_rng(seed)
    y_pred = rng.integers(0, 4, len(y_true))
    for metric in (accuracy_score, precision_score, recall_score):
        assert 0.0 <= metric(y_true, y_pred) <= 1.0
    assert 0.0 <= f1_score(y_true, y_pred, average="macro") <= 1.0
    assert 0.0 <= v_measure_score(y_true, y_pred) <= 1.0 + 1e-9


@given(y_true=labels, seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_v_measure_invariant_to_cluster_relabeling(y_true, seed):
    rng = np.random.default_rng(seed)
    y_pred = rng.integers(0, 4, len(y_true))
    permutation = rng.permutation(4)
    relabeled = permutation[y_pred]
    assert v_measure_score(y_true, y_pred) == pytest.approx(
        v_measure_score(y_true, relabeled)
    )


# --------------------------------------------------------------------------- #
# Flowmarkers
# --------------------------------------------------------------------------- #
@st.composite
def simple_flows(draw):
    n = draw(st.integers(1, 20))
    gaps = draw(st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=n - 1,
                         max_size=n - 1)) if n > 1 else []
    sizes = draw(st.lists(st.integers(64, 1518), min_size=n, max_size=n))
    flow = Flow()
    t = 0.0
    for i in range(n):
        if i > 0:
            t += gaps[i - 1]
        flow.add(Packet(timestamp=t, size=sizes[i], src_ip=1, dst_ip=2,
                        src_port=1, dst_port=2))
    return flow


@given(flow=simple_flows())
@settings(max_examples=60, deadline=None)
def test_flowmarker_mass_conservation(flow):
    spec = FlowMarkerSpec()
    marker = build_flowmarker(flow, spec)
    assert marker[: spec.pl_bins].sum() == len(flow)
    assert marker[spec.pl_bins :].sum() == max(0, len(flow) - 1)
    assert np.all(marker >= 0)


@given(flow=simple_flows(), factor=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_fuse_bins_preserves_mass(flow, factor):
    marker = build_flowmarker(flow)
    fused = fuse_bins(marker, factor)
    assert fused.sum() == pytest.approx(marker.sum())
    assert fused.shape[0] == int(np.ceil(marker.shape[0] / factor))
