"""Fixed-point functional and timing simulation of MapReduce programs.

This is the SARA/Tungsten stand-in: it executes the lowered integer
program exactly as the grid would (integer multiply, product rescale,
saturating accumulate, ReLU) and reports the timing the resource model
predicts.  The optimization core treats its output as ground truth for
post-quantization accuracy and for latency/throughput feasibility.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import PerformanceEstimate, ResourceUsage
from repro.backends.taurus.ir import (
    INPUT_FRACTION_BITS,
    DecisionStage,
    DenseStage,
    MapReduceProgram,
    ScaleStage,
)
from repro.backends.taurus.resources import (
    CLOCK_GHZ,
    DEPARSE_CYCLES,
    PARSE_CYCLES,
    TaurusGrid,
    decision_stage_cost,
    dense_layer_cost,
    initiation_interval,
    scale_stage_cost,
)
from repro.errors import BackendError


def _clip(values: np.ndarray, lo, hi) -> np.ndarray:
    """``np.clip`` without its per-call wrapper and bound checks."""
    out = np.maximum(values, lo)
    return np.minimum(out, hi, out=out)


def _saturate(codes: np.ndarray, fmt) -> np.ndarray:
    lo = -(2 ** (fmt.integer_bits + fmt.fraction_bits))
    hi = 2 ** (fmt.integer_bits + fmt.fraction_bits) - 1
    return _clip(codes, lo, hi)


class TaurusSimulator:
    """Execute a :class:`MapReduceProgram` and estimate its timing."""

    def __init__(self, program: MapReduceProgram, grid: TaurusGrid = TaurusGrid()) -> None:
        self.program = program
        self.grid = grid
        # Float64 copies of the dense weights, for the stages whose
        # every product and partial sum is an integer below 2**53 (so
        # float64 holds it exactly, in any summation order, with or
        # without FMA): input codes are saturated to 2**(m+n) in
        # magnitude, so ``in_dim * 2**(m+n) * max|W| < 2**53`` bounds
        # the accumulator.  ``None`` keeps a stage on the int64 matmul.
        fmt = program.fmt
        reach = 2 ** (fmt.integer_bits + fmt.fraction_bits)
        self._float_weights = {}
        for index, stage in enumerate(program.stages):
            if isinstance(stage, DenseStage):
                weights = stage.weight_codes.astype(np.int64)
                peak = int(np.abs(weights).max(initial=0))
                exact = stage.in_dim * reach * peak < 2**53
                self._float_weights[index] = (
                    weights.astype(np.float64) if exact else None)

    # ------------------------------------------------------------------ #
    # Functional simulation (integer arithmetic only)
    # ------------------------------------------------------------------ #
    def _run_scale(self, stage: ScaleStage, codes: np.ndarray) -> np.ndarray:
        fmt = self.program.fmt
        # Inputs arrive in the raw integer domain.  Normalized multiply:
        # (x - mean) * mant, then a per-feature arithmetic shift lands the
        # standardized value in the pipeline's Qm.n code domain.
        centered = codes - stage.mean_codes[None, :]
        product = centered * stage.mant_codes[None, :]
        shift = stage.shift_codes
        out = np.where(shift >= 0, product >> np.maximum(shift, 0),
                       product << np.maximum(-shift, 0))
        return _saturate(out, fmt)

    def _run_dense(self, stage: DenseStage, codes: np.ndarray,
                   float_weights: "np.ndarray | None") -> np.ndarray:
        fmt = self.program.fmt
        # Wide accumulate, then rescale once per dot product (hardware keeps
        # the accumulator wide and shifts at write-back).  The float64
        # matmul (BLAS) gives the same integers when the stage is exact.
        if float_weights is not None:
            acc = (codes.astype(np.float64) @ float_weights).astype(np.int64)
        else:
            acc = codes.astype(np.int64) @ stage.weight_codes.astype(np.int64)
        acc = (acc >> fmt.fraction_bits) + stage.bias_codes[None, :]
        if stage.activation == "relu":
            acc = np.maximum(acc, 0)
        elif stage.activation == "sign":
            one = 1 << fmt.fraction_bits
            acc = np.where(acc >= 0, one, -one)
        return _saturate(acc, fmt)

    def _run_decision(self, stage: DecisionStage, codes: np.ndarray) -> np.ndarray:
        if stage.kind == "threshold":
            return (codes[:, 0] >= 0).astype(int)
        return codes.argmax(axis=1).astype(int)

    def predict(self, X) -> np.ndarray:
        """Run every feature row through the pipeline; returns class ids.

        When the program starts with a :class:`ScaleStage` the input is
        treated as raw integer header values (what a parser extracts);
        otherwise it is quantized straight into the pipeline's fixed-point
        format.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        fmt = self.program.fmt
        if isinstance(self.program.stages[0], ScaleStage):
            scaled = np.round(X * 2**INPUT_FRACTION_BITS)
            codes = _clip(scaled, -(2**40), 2**40 - 1).astype(np.int64)
        else:
            codes = _saturate(np.round(X / fmt.scale).astype(np.int64), fmt)
        for index, stage in enumerate(self.program.stages):
            if isinstance(stage, ScaleStage):
                codes = self._run_scale(stage, codes)
            elif isinstance(stage, DenseStage):
                codes = self._run_dense(stage, codes, self._float_weights[index])
            elif isinstance(stage, DecisionStage):
                return self._run_decision(stage, codes)
            else:
                raise BackendError(f"unknown stage type {type(stage)!r}")
        raise BackendError("program ended without a DecisionStage")

    # ------------------------------------------------------------------ #
    # Timing / resources
    # ------------------------------------------------------------------ #
    def resources(self) -> ResourceUsage:
        """Aggregate CU/MU usage across stages (same model the paper's
        backend reports back to the optimization core)."""
        cus = 0
        mus = 0
        for stage in self.program.stages:
            if isinstance(stage, ScaleStage):
                cost = scale_stage_cost(stage.n_features)
            elif isinstance(stage, DenseStage):
                cost = dense_layer_cost(
                    stage.in_dim,
                    stage.out_dim,
                    nonlinear=stage.activation in ("relu", "sign"),
                    binary=stage.binary,
                )
            elif isinstance(stage, DecisionStage):
                cost = decision_stage_cost(stage.n_outputs)
            else:
                raise BackendError(f"unknown stage type {type(stage)!r}")
            cus += cost.cus
            mus += cost.mus
        return ResourceUsage({"cus": cus, "mus": mus})

    def pipeline_cycles(self) -> int:
        """Per-packet latency in cycles (parse + stages + deparse)."""
        cycles = PARSE_CYCLES + DEPARSE_CYCLES
        for stage in self.program.stages:
            if isinstance(stage, ScaleStage):
                cycles += scale_stage_cost(stage.n_features).cycles
            elif isinstance(stage, DenseStage):
                cycles += dense_layer_cost(
                    stage.in_dim,
                    stage.out_dim,
                    nonlinear=stage.activation in ("relu", "sign"),
                    binary=stage.binary,
                ).cycles
            elif isinstance(stage, DecisionStage):
                cycles += decision_stage_cost(stage.n_outputs).cycles
        return cycles

    def stage_report(self) -> list:
        """Tungsten-style per-stage breakdown.

        Returns one dict per stage with its kind, shape, CU/MU cost and
        cycle latency — the trace the paper's cycle-accurate simulator
        hands back to the optimization core for diagnostics.
        """
        rows = []
        for index, stage in enumerate(self.program.stages):
            if isinstance(stage, ScaleStage):
                cost = scale_stage_cost(stage.n_features)
                kind, shape = "scale", f"{stage.n_features}"
            elif isinstance(stage, DenseStage):
                cost = dense_layer_cost(
                    stage.in_dim,
                    stage.out_dim,
                    nonlinear=stage.activation in ("relu", "sign"),
                    binary=stage.binary,
                )
                kind, shape = "dense", f"{stage.in_dim}x{stage.out_dim}"
            elif isinstance(stage, DecisionStage):
                cost = decision_stage_cost(stage.n_outputs)
                kind, shape = f"decision/{stage.kind}", f"{stage.n_outputs}"
            else:
                raise BackendError(f"unknown stage type {type(stage)!r}")
            rows.append(
                {
                    "stage": index,
                    "kind": kind,
                    "shape": shape,
                    "cus": cost.cus,
                    "mus": cost.mus,
                    "cycles": cost.cycles,
                }
            )
        return rows

    def format_stage_report(self) -> str:
        """Human-readable rendering of :meth:`stage_report`."""
        header = f"{'Stage':>6}  {'Kind':<18}{'Shape':<10}{'CUs':>5}{'MUs':>5}{'Cycles':>7}"
        lines = [header, "-" * len(header)]
        for row in self.stage_report():
            lines.append(
                f"{row['stage']:>6}  {row['kind']:<18}{row['shape']:<10}"
                f"{row['cus']:>5}{row['mus']:>5}{row['cycles']:>7}"
            )
        usage = self.resources()
        lines.append(
            f"{'total':>6}  {'':<18}{'':<10}{usage['cus']:>5}{usage['mus']:>5}"
            f"{self.pipeline_cycles():>7}"
        )
        return "\n".join(lines)

    def performance(self) -> PerformanceEstimate:
        """Latency (ns) and throughput (Gpkt/s) on this grid.

        At II = 1 the pipeline accepts a packet every cycle: throughput =
        clock.  If the model over-subscribes the grid, stages
        time-multiplex and throughput divides by II.
        """
        ii = initiation_interval(self.resources(), self.grid)
        throughput = CLOCK_GHZ / ii
        latency = self.pipeline_cycles() / CLOCK_GHZ
        return PerformanceEstimate(throughput_gpps=throughput, latency_ns=latency)
