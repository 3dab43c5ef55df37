"""MapReduce IR: the stage sequence Taurus pipelines lower to.

A lowered model is a list of stages executed per packet:

* :class:`ScaleStage` — input standardization (map),
* :class:`DenseStage` — vector-matrix multiply (map x reduce) + activation,
* :class:`DecisionStage` — threshold or argmax over the final logits.

All numeric payloads are stored as *integer fixed-point codes* in a
:class:`~repro.ml.quantization.FixedPointFormat`; the simulator executes
integer arithmetic only, like the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BackendError
from repro.ml.quantization import DEFAULT_FORMAT, FixedPointFormat, quantize_to_int

#: Sub-integer resolution of parsed input features (the parser emits
#: ``round(x * 2^INPUT_FRACTION_BITS)``), so fractional features survive.
INPUT_FRACTION_BITS = 8


@dataclass(frozen=True)
class ScaleStage:
    """Fixed-point standardization: ``x' = (x - mean) * inv_std``.

    Header parsers hand the pipeline *raw integer* feature values (byte
    counts, ports, bin counts), which can far exceed the Qm.n dynamic
    range, and inverse standard deviations span many orders of magnitude.
    Hardware handles this with a normalized multiply: per feature we store
    an integer ``mean``, a 16-bit mantissa ``mant`` in ``[2^15, 2^16)`` and
    a right-shift amount, so that

        ``code(x') = ((x - mean) * mant) >> shift``

    lands directly in the pipeline's Qm.n format with <= 2^-15 relative
    error on the scale factor.  Negative shifts encode left shifts.
    """

    mean_codes: np.ndarray  # raw integer domain
    mant_codes: np.ndarray  # 16-bit normalized mantissas
    shift_codes: np.ndarray  # per-feature arithmetic shift (may be negative)

    @property
    def n_features(self) -> int:
        return int(self.mean_codes.shape[0])


@dataclass(frozen=True)
class DenseStage:
    """One fully connected layer in integer form.

    ``weight_codes`` has shape (in, out); ``bias_codes`` shape (out,).
    ``activation`` is ``"relu"``, ``"linear"``, or ``"sign"`` (binarized
    networks) — the functions hardware evaluates directly (output
    sigmoids/softmaxes are monotonic, so the decision stage works on raw
    logits).  ``binary=True`` marks ±1 weights, which lower to packed
    XNOR+popcount lanes and 1-bit storage in the resource model.
    """

    weight_codes: np.ndarray
    bias_codes: np.ndarray
    activation: str = "relu"
    binary: bool = False

    def __post_init__(self) -> None:
        if self.weight_codes.ndim != 2:
            raise BackendError("weight_codes must be 2-D (in x out)")
        if self.bias_codes.shape[0] != self.weight_codes.shape[1]:
            raise BackendError("bias length must equal layer out-dim")
        if self.activation not in ("relu", "linear", "sign"):
            raise BackendError(
                f"unsupported hardware activation {self.activation!r}"
            )

    @property
    def in_dim(self) -> int:
        return int(self.weight_codes.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.weight_codes.shape[1])


@dataclass(frozen=True)
class DecisionStage:
    """Map final logits to a class id.

    ``kind`` is ``"threshold"`` (binary single-logit: >= 0 -> class 1) or
    ``"argmax"`` (multi-class).
    """

    kind: str
    n_outputs: int

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "argmax"):
            raise BackendError(f"unknown decision kind {self.kind!r}")
        if self.kind == "threshold" and self.n_outputs != 1:
            raise BackendError("threshold decision requires exactly one logit")
        if self.n_outputs < 1:
            raise BackendError("decision stage needs >= 1 logit")


@dataclass
class MapReduceProgram:
    """A complete per-packet pipeline in Taurus IR."""

    name: str
    stages: list = field(default_factory=list)
    fmt: FixedPointFormat = DEFAULT_FORMAT

    def __post_init__(self) -> None:
        if not self.stages:
            raise BackendError("program needs at least one stage")
        if not isinstance(self.stages[-1], DecisionStage):
            raise BackendError("program must end with a DecisionStage")
        dims = self.dense_dims
        for (a, b) in zip(dims, dims[1:]):
            if a[1] != b[0]:
                raise BackendError(f"stage dim mismatch: {a} feeds {b}")

    @property
    def dense_stages(self) -> list:
        return [s for s in self.stages if isinstance(s, DenseStage)]

    @property
    def dense_dims(self) -> list:
        return [(s.in_dim, s.out_dim) for s in self.dense_stages]

    @property
    def topology(self) -> list:
        """``[in, h1, ..., out]`` recovered from the dense stages."""
        dense = self.dense_stages
        if not dense:
            return []
        return [dense[0].in_dim] + [s.out_dim for s in dense]


def _scale_stage_from(scaler, fmt: FixedPointFormat) -> ScaleStage:
    """Build a :class:`ScaleStage` from a fitted StandardScaler.

    The parser delivers features with :data:`INPUT_FRACTION_BITS` of
    sub-integer resolution (``code(x) = round(x * 2^f_in)``) so fractional
    features like rates survive.  Each ``inv_std`` is decomposed into
    ``mant * 2^-e`` with a 16-bit mantissa, and both the input and output
    scalings fold into the per-feature shift:
    ``code(x') = ((code(x) - code(mean)) * mant) >> (15 - e + f_in - f_out)``.
    """
    if scaler.mean_ is None or scaler.scale_ is None:
        raise BackendError("scaler must be fitted before lowering")
    inv_std = 1.0 / np.asarray(scaler.scale_, dtype=float)
    mants = np.empty(inv_std.shape[0], dtype=np.int64)
    shifts = np.empty(inv_std.shape[0], dtype=np.int64)
    for i, v in enumerate(inv_std):
        exponent = int(np.floor(np.log2(v)))
        mant = int(round(v * 2.0 ** (15 - exponent)))
        if mant == 2**16:  # rounding may push to the next power of two
            mant //= 2
            exponent += 1
        mants[i] = mant
        shifts[i] = 15 - exponent + INPUT_FRACTION_BITS - fmt.fraction_bits
    return ScaleStage(
        mean_codes=np.round(scaler.mean_ * 2**INPUT_FRACTION_BITS).astype(np.int64),
        mant_codes=mants,
        shift_codes=shifts,
    )


def lower_network(
    network,
    scaler=None,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
    name: str = "pipeline",
) -> MapReduceProgram:
    """Lower a trained :class:`~repro.ml.network.NeuralNetwork` (plus an
    optional fitted StandardScaler) into a :class:`MapReduceProgram`."""
    stages: list = []
    if scaler is not None:
        stages.append(_scale_stage_from(scaler, fmt))
    dense = network.dense_layers
    if not dense:
        raise BackendError("network has no dense layers")
    for i, layer in enumerate(dense):
        is_last = i == len(dense) - 1
        activation = "linear" if is_last else (
            "relu" if layer.activation.name == "relu" else "linear"
        )
        if not is_last and layer.activation.name not in ("relu", "linear"):
            raise BackendError(
                f"hidden activation {layer.activation.name!r} is not lowerable; "
                "use relu"
            )
        stages.append(
            DenseStage(
                weight_codes=quantize_to_int(layer.weights, fmt),
                bias_codes=quantize_to_int(layer.bias, fmt),
                activation=activation,
            )
        )
    out_dim = dense[-1].out_dim
    kind = "threshold" if out_dim == 1 else "argmax"
    stages.append(DecisionStage(kind=kind, n_outputs=out_dim))
    return MapReduceProgram(name=name, stages=stages, fmt=fmt)


def lower_binarized_network(
    bnn,
    scaler=None,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
    name: str = "bnn_pipeline",
) -> MapReduceProgram:
    """Lower a :class:`~repro.ml.bnn.BinarizedNetwork` (N2Net-style).

    ±1 weights are exactly representable in any Qm.n format; hidden
    layers binarize their activations with ``sign``, and the final layer
    keeps real-valued logits for the decision stage.
    """
    stages: list = []
    if scaler is not None:
        stages.append(_scale_stage_from(scaler, fmt))
    layers = bnn.layers
    if not layers:
        raise BackendError("binarized network has no layers")
    for i, layer in enumerate(layers):
        is_last = i == len(layers) - 1
        stages.append(
            DenseStage(
                weight_codes=quantize_to_int(layer.binary_weights, fmt),
                bias_codes=quantize_to_int(layer.bias, fmt),
                activation="linear" if is_last else "sign",
                binary=True,
            )
        )
    out_dim = layers[-1].out_dim
    kind = "threshold" if out_dim == 1 else "argmax"
    stages.append(DecisionStage(kind=kind, n_outputs=out_dim))
    return MapReduceProgram(name=name, stages=stages, fmt=fmt)


def lower_svm(
    svm,
    scaler=None,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
    name: str = "svm_pipeline",
) -> MapReduceProgram:
    """Lower a trained :class:`~repro.ml.svm.LinearSVM` — a single linear
    dense stage followed by the decision."""
    if svm.coef_ is None or svm.intercept_ is None:
        raise BackendError("SVM must be fitted before lowering")
    stages: list = []
    if scaler is not None:
        stages.append(_scale_stage_from(scaler, fmt))
    stages.append(
        DenseStage(
            weight_codes=quantize_to_int(svm.coef_.T, fmt),
            bias_codes=quantize_to_int(svm.intercept_, fmt),
            activation="linear",
        )
    )
    n_out = svm.coef_.shape[0]
    kind = "threshold" if n_out == 1 else "argmax"
    stages.append(DecisionStage(kind=kind, n_outputs=n_out))
    return MapReduceProgram(name=name, stages=stages, fmt=fmt)
