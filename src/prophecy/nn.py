"""Mini neural-network DSL: 1-D convolution, thresholded ReLU, and fusion.

A ReLU directly after a convolution can be folded into the convolution's
loop (clamp the accumulated sum before the store), saving a full traversal.
Whether that is sound depends on the *future*: every operation that follows
the convolution — on every second-stage path — must be a ReLU, and all of
them must share one activation threshold.

Each convolution output therefore carries a prophecy cell predicting "the
next operation is a ReLU with threshold t", over a three-level lattice:

    Unspecified  <  T(threshold)  <  F

``relu`` requires T(its threshold) when its input came straight from a
convolution (tracked by a history flag).  Two ReLUs with thresholds that
differ by at least 0.001 merge the cell to F, which satisfies every later
requirement — so F permanently disables fusion for that convolution and
both operations emit their own loops.  At the fixpoint, ``convolve`` reads
the cell: T(t) records the fused clamp, anything else a plain convolution.

Convolution indexing wraps around the input (``(i + j) mod size``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .second_stage import _ELEM_BYTES, SecondStageProgram
from .staging import (
    HistoryVar,
    LatticeSpec,
    ProphecyCell,
    StageContext,
    StageStats,
    StagedExpr,
    run_staged,
)

THRESHOLD_TOLERANCE = 0.001


class NnError(Exception):
    pass


@dataclass(frozen=True)
class FalseTopValue:
    """Lattice point: level 0 = Unspecified, 1 = T (with threshold), 2 = F."""

    level: int
    threshold: float = 0.0

    def __repr__(self) -> str:
        if self.level == FalseTopLattice.LEVEL_T:
            return f"T({self.threshold})"
        return "F" if self.level == FalseTopLattice.LEVEL_F else "Unspecified"


class FalseTopLattice(LatticeSpec):
    """Three-point chain with false on top; T carries an activation threshold.

    Two T values agree when their thresholds differ by less than 0.001.
    Merging two disagreeing T values yields F: fusion is off for good, and
    because F sits on top it satisfies every later requirement.
    """

    name = "false_top"
    max_rank = 2
    LEVEL_UNSPECIFIED = 0
    LEVEL_T = 1
    LEVEL_F = 2

    def satisfies(self, current: FalseTopValue, required: FalseTopValue) -> bool:
        if current.level > required.level:
            return True
        if current.level < required.level:
            return False
        if current.level == self.LEVEL_T:
            return abs(current.threshold - required.threshold) < THRESHOLD_TOLERANCE
        return True

    def merge(self, current: FalseTopValue, required: FalseTopValue) -> FalseTopValue:
        if current.level == self.LEVEL_T and required.level == self.LEVEL_T:
            return FALSE_TOP_F
        return required

    def rank(self, value: FalseTopValue) -> int:
        return value.level

    def contains(self, value) -> bool:
        return isinstance(value, FalseTopValue) and value.level in (
            self.LEVEL_UNSPECIFIED,
            self.LEVEL_T,
            self.LEVEL_F,
        )


FALSE_TOP = FalseTopLattice()
FALSE_TOP_UNSPECIFIED = FalseTopValue(FalseTopLattice.LEVEL_UNSPECIFIED)
FALSE_TOP_F = FalseTopValue(FalseTopLattice.LEVEL_F)


def next_is_relu(threshold: float) -> FalseTopValue:
    return FalseTopValue(FalseTopLattice.LEVEL_T, threshold)


class MLTensor:
    """A 1-D float tensor; convolution outputs carry the fusion cell."""

    def __init__(self, session: "NnSession", size: int, buffer: StagedExpr | None = None):
        if isinstance(size, bool) or not isinstance(size, int) or size <= 0:
            raise NnError(f"tensor size must be a positive int, got {size!r}")
        self.session = session
        self.size = size
        if buffer is None:
            self.buffer = session.ctx.declare(
                "float*", session.ctx.runtime_expr("runtime::malloc", size * _ELEM_BYTES)
            )
        else:
            self.buffer = buffer
        self.is_last_convolution = HistoryVar(session.ctx, False)
        self.is_next_relu: ProphecyCell | None = None


class NnSession:
    """One generation session; ``fusion=False`` builds the naive variant."""

    def __init__(self, ctx: StageContext, *, fusion: bool = True):
        self.ctx = ctx
        self.fusion = fusion
        self._conv_count = 0

    def tensor(self, size: int, buffer: StagedExpr | None = None) -> MLTensor:
        return MLTensor(self, size, buffer)

    def convolve(self, input: MLTensor, filter: MLTensor) -> MLTensor:
        """Record a wrap-around 1-D convolution; clamp in-loop if fusion holds.

        The output gets a fresh prediction cell (initially Unspecified) and
        the last-operation-was-a-convolution flag.  When the cell has
        settled on T(t), the clamp against t is recorded before the store —
        the fused form, a single traversal.
        """
        if filter.size > input.size:
            raise NnError(
                f"filter size {filter.size} exceeds input size {input.size}"
            )
        ctx = self.ctx
        output = self.tensor(input.size)
        output.is_last_convolution.set(True)
        conv_name = f"conv{self._conv_count}"
        self._conv_count += 1
        if self.fusion:
            output.is_next_relu = ctx.prophecy_cell(
                FALSE_TOP, FALSE_TOP_UNSPECIFIED, name=f"is_next_relu[{conv_name}]"
            )

        def body(i: StagedExpr) -> None:
            acc = ctx.declare("float", 0.0)

            def filter_body(j: StagedExpr) -> None:
                ctx.assign(acc, acc + input.buffer[(i + j) % input.size] * filter.buffer[j])

            ctx.for_loop(0, filter.size, 1, filter_body)
            if self.fusion:
                prediction = output.is_next_relu.get()
                if prediction.level == FalseTopLattice.LEVEL_T:
                    ctx.if_else(
                        acc < prediction.threshold, lambda: ctx.assign(acc, 0.0)
                    )
            ctx.assign(output.buffer[i], acc)

        ctx.for_loop(0, input.size, 1, body)
        return output

    def relu(self, input: MLTensor, threshold: float) -> MLTensor:
        """Record a thresholded ReLU, or nothing if it fused into the producer.

        Straight after a convolution this requires the producer's cell to
        predict T(threshold) — a misprediction merges and reruns.  If the
        settled prediction is T the clamp already sits inside the
        convolution loop and this emits no code; any other input gets a
        standalone elementwise clamp (in place).
        """
        ctx = self.ctx
        if self.fusion and input.is_last_convolution.get():
            input.is_last_convolution.set(False)
            input.is_next_relu.require(next_is_relu(threshold))
            if input.is_next_relu.get().level == FalseTopLattice.LEVEL_T:
                return input

        def body(i: StagedExpr) -> None:
            ctx.if_else(input.buffer[i] < threshold, lambda: ctx.assign(input.buffer[i], 0.0))

        ctx.for_loop(0, input.size, 1, body)
        return input


def build_conv_relu_benchmark(
    size: int, filter_size: int, *, fusion: bool = True
) -> tuple[SecondStageProgram, StageStats]:
    """Two-part benchmark: divergent thresholds, then a fusable pair.

    Part 1 convolves and branches on a second-stage flag, applying
    relu(2.0) on one arm and relu(4.0) on the other — the thresholds
    disagree, so no fusion is possible and each arm emits its own loop.
    Part 2 convolves and applies relu(1.56) unconditionally, which fuses.
    Results land in the two output buffers (part 1's branch writes the
    first; part 2 the second).
    """

    def generate(ctx: StageContext) -> None:
        session = NnSession(ctx, fusion=fusion)
        data = ctx.parameter("float*")
        weight = ctx.parameter("float*")
        branch_flag = ctx.parameter("int")
        part1_out = ctx.parameter("float*")
        part2_out = ctx.parameter("float*")
        input = session.tensor(size, buffer=data)
        filt = session.tensor(filter_size, buffer=weight)

        conv_out = session.convolve(input, filt)

        def small_threshold() -> None:
            out = session.relu(conv_out, 2.0)
            ctx.runtime("runtime::memcpy", part1_out, out.buffer, size * _ELEM_BYTES)

        def large_threshold() -> None:
            out = session.relu(conv_out, 4.0)
            ctx.runtime("runtime::memcpy", part1_out, out.buffer, size * _ELEM_BYTES)

        ctx.if_else(branch_flag, small_threshold, large_threshold)

        conv_out2 = session.convolve(input, filt)
        out2 = session.relu(conv_out2, 1.56)
        ctx.runtime("runtime::memcpy", part2_out, out2.buffer, size * _ELEM_BYTES)

    return run_staged(generate, name="conv_relu")
