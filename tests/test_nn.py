import itertools
import random

import numpy as np
import pytest

from prophecy.interp import interpret_program
from prophecy.nn import (
    FALSE_TOP,
    FALSE_TOP_F,
    FALSE_TOP_UNSPECIFIED,
    FalseTopLattice,
    NnError,
    NnSession,
    build_conv_relu_benchmark,
    next_is_relu,
)
from prophecy.second_stage import ForLoop, IfElse, emit_c
from prophecy.staging import (
    MispredictionSignal, ProphecyStore, StageContext, StagingError, run_staged,
)


def top_level_data_loops(stmts):
    """Data traversals: loops at statement level, including inside branches."""
    loops = []
    for stmt in stmts:
        if isinstance(stmt, ForLoop):
            loops.append(stmt)
        elif isinstance(stmt, IfElse):
            loops.extend(top_level_data_loops(stmt.then_body))
            loops.extend(top_level_data_loops(stmt.else_body or []))
    return loops


class TestFalseTopLattice:
    def test_order_and_ranks(self):
        assert FALSE_TOP.rank(FALSE_TOP_UNSPECIFIED) == 0
        assert FALSE_TOP.rank(next_is_relu(1.0)) == 1
        assert FALSE_TOP.rank(FALSE_TOP_F) == 2 == FALSE_TOP.max_rank

    def test_satisfies_threshold_tolerance(self):
        assert FALSE_TOP.satisfies(next_is_relu(1.56), next_is_relu(1.5601))
        assert not FALSE_TOP.satisfies(next_is_relu(1.56), next_is_relu(1.562))

    def test_f_absorbs_every_requirement(self):
        assert FALSE_TOP.satisfies(FALSE_TOP_F, next_is_relu(2.0))
        assert FALSE_TOP.satisfies(FALSE_TOP_F, next_is_relu(4.0))
        assert FALSE_TOP.satisfies(FALSE_TOP_F, FALSE_TOP_UNSPECIFIED)

    def test_divergent_thresholds_merge_to_f(self):
        assert FALSE_TOP.merge(next_is_relu(2.0), next_is_relu(4.0)) == FALSE_TOP_F

    def test_unspecified_adopts_requirement(self):
        assert FALSE_TOP.merge(FALSE_TOP_UNSPECIFIED, next_is_relu(2.0)) == next_is_relu(2.0)

    def test_never_required_cell_stays_unspecified(self):
        store = ProphecyStore()
        ctx = StageContext(store, 1, "t")
        cell = ctx.prophecy_cell(FALSE_TOP, FALSE_TOP_UNSPECIFIED)
        assert cell.get() == FALSE_TOP_UNSPECIFIED

    def test_divergent_requirement_on_cell(self):
        store = ProphecyStore()
        ctx = StageContext(store, 1, "t")
        cell = ctx.prophecy_cell(FALSE_TOP, FALSE_TOP_UNSPECIFIED)
        with pytest.raises(MispredictionSignal):
            cell.require(next_is_relu(2.0))
        ctx = StageContext(store, 2, "t")
        cell = ctx.prophecy_cell(FALSE_TOP, FALSE_TOP_UNSPECIFIED)
        with pytest.raises(MispredictionSignal):
            cell.require(next_is_relu(4.0))
        assert store.cells[0].value == FALSE_TOP_F


class TestConvolveRelu:
    def test_fused_when_single_threshold(self):
        def generate(ctx):
            session = NnSession(ctx)
            data = ctx.parameter("float*")
            weight = ctx.parameter("float*")
            out = ctx.parameter("float*")
            conv = session.convolve(session.tensor(8, data), session.tensor(3, weight))
            result = session.relu(conv, 1.56)
            ctx.runtime("runtime::memcpy", out, result.buffer, 32)

        prog, stats = run_staged(generate)
        assert stats.runs == 2  # one merge to T(1.56), then clean
        loops = top_level_data_loops(prog.body)
        assert len(loops) == 1  # single traversal: the fused convolution
        assert "1.56" in emit_c(prog)

    def test_no_relu_leaves_plain_convolution(self):
        def generate(ctx):
            session = NnSession(ctx)
            data = ctx.parameter("float*")
            weight = ctx.parameter("float*")
            session.convolve(session.tensor(8, data), session.tensor(3, weight))

        prog, stats = run_staged(generate)
        assert stats.runs == 1
        text = emit_c(prog)
        assert "if" not in text  # no clamp recorded

    def test_relu_on_plain_tensor_is_standalone(self):
        def generate(ctx):
            session = NnSession(ctx)
            data = ctx.parameter("float*")
            session.relu(session.tensor(8, data), 2.0)

        prog, stats = run_staged(generate)
        assert stats.runs == 1
        assert len(top_level_data_loops(prog.body)) == 1

    def test_infinite_threshold_rejected(self):
        def generate(ctx):
            session = NnSession(ctx)
            data = ctx.parameter("float*")
            session.relu(session.tensor(8, data), float("inf"))  # C has no `inf` literal

        with pytest.raises(StagingError, match="is not finite"):
            run_staged(generate)

    @pytest.mark.parametrize("size", [4.0, True, 0, -1])
    def test_size_that_is_not_a_positive_int_rejected(self, size):
        # a float size used to record `var0 < 4.0` and `runtime::malloc(16.0)`
        session = NnSession(StageContext(ProphecyStore(), run_index=1, name="t"))
        with pytest.raises(NnError, match=f"^tensor size must be a positive int, got {size!r}$"):
            session.tensor(size)

    def test_filter_larger_than_input_rejected(self):
        def generate(ctx):
            session = NnSession(ctx)
            data = ctx.parameter("float*")
            weight = ctx.parameter("float*")
            session.convolve(session.tensor(3, data), session.tensor(8, weight))

        with pytest.raises(NnError, match="filter size"):
            run_staged(generate)


class TestBenchmark:
    def test_four_prophecy_runs(self):
        _, stats = build_conv_relu_benchmark(16, 3)
        assert stats.runs == 4
        assert stats.merges == 3
        merges = [(e.old_value, e.new_value) for e in stats.merge_log]
        assert merges == [
            (FALSE_TOP_UNSPECIFIED, next_is_relu(2.0)),
            (next_is_relu(2.0), FALSE_TOP_F),
            (FALSE_TOP_UNSPECIFIED, next_is_relu(1.56)),
        ]

    def test_merges_name_their_cells_in_order(self):
        _, stats = build_conv_relu_benchmark(16, 3)
        assert [event.name for event in stats.merge_log] == [
            "is_next_relu[conv0]", "is_next_relu[conv0]", "is_next_relu[conv1]",
        ]

    def test_structural_counts(self):
        prog, _ = build_conv_relu_benchmark(16, 3)
        # part 1: convolution loop plus one relu loop per branch (divergent
        # thresholds); part 2: exactly one fused loop nest
        branch_at = next(i for i, s in enumerate(prog.body) if isinstance(s, IfElse))
        part1 = top_level_data_loops(prog.body[: branch_at + 1])
        part2 = top_level_data_loops(prog.body[branch_at + 1 :])
        assert len(part1) == 3
        assert len(part2) == 1

    def test_unfused_variant_single_run(self):
        _, stats = build_conv_relu_benchmark(16, 3, fusion=False)
        assert stats.runs == 1

    def test_runs_equal_value_changes_plus_one(self):
        _, stats = build_conv_relu_benchmark(16, 3)
        assert stats.runs == len(stats.merge_log) + 1


def conv_relu_reference(data, weight, threshold):
    """Direct float32 conv + relu with wrap-around indexing."""
    size, fsize = len(data), len(weight)
    out = np.zeros(size, dtype=np.float32)
    for i in range(size):
        acc = np.float32(0.0)
        for j in range(fsize):
            acc = acc + data[(i + j) % size] * weight[j]
        out[i] = acc if acc >= threshold else np.float32(0.0)
    return out


class TestSemantics:
    @pytest.mark.parametrize("flag,thresholds", [(1, 2.0), (0, 4.0)])
    def test_against_direct_reference(self, flag, thresholds):
        rng = np.random.default_rng(7)
        size, fsize = 16, 3
        data = rng.standard_normal(size).astype(np.float32) * 3
        weight = rng.standard_normal(fsize).astype(np.float32)
        prog, _ = build_conv_relu_benchmark(size, fsize)
        out = interpret_program(
            prog,
            {
                "arg0": data,
                "arg1": weight,
                "arg2": flag,
                "arg3": np.zeros(size),
                "arg4": np.zeros(size),
            },
        )
        np.testing.assert_allclose(
            out["arg3"], conv_relu_reference(data, weight, thresholds), atol=1e-6
        )
        np.testing.assert_allclose(
            out["arg4"], conv_relu_reference(data, weight, 1.56), atol=1e-6
        )

    def test_fused_and_unfused_agree(self):
        rng = np.random.default_rng(3)
        size, fsize = 32, 5
        fused, _ = build_conv_relu_benchmark(size, fsize)
        unfused, _ = build_conv_relu_benchmark(size, fsize, fusion=False)
        for trial in range(5):
            data = rng.standard_normal(size).astype(np.float32) * 4
            weight = rng.standard_normal(fsize).astype(np.float32)
            for flag in (0, 1):
                inputs = {
                    "arg0": data,
                    "arg1": weight,
                    "arg2": flag,
                    "arg3": np.zeros(size),
                    "arg4": np.zeros(size),
                }
                a = interpret_program(fused, inputs)
                b = interpret_program(unfused, inputs)
                np.testing.assert_allclose(a["arg3"], b["arg3"], atol=1e-6)
                np.testing.assert_allclose(a["arg4"], b["arg4"], atol=1e-6)


# --------------------------------------------------------------------------
# Sessions: reads of a convolution's output other than its ReLU
# --------------------------------------------------------------------------

# A session is a list of operations on tensors numbered in creation order (0 is the input):
# ("conv", t) convolves tensor t with the filter, ("relu", t, threshold) clamps it,
# ("copy", t, k) copies it out to output k, and ("if", f, then_ops, else_ops) branches on flag f.
FUSION_CASES = {
    "copy before relu": [("conv", 0), ("copy", 1, 0), ("relu", 1, 1.0)],
    "convolution reads before relu": [("conv", 0), ("conv", 1), ("relu", 1, 1.0), ("copy", 2, 0)],
    "else arm copies unclamped": [
        ("conv", 0), ("if", 0, [("relu", 1, 1.0), ("copy", 1, 0)], [("copy", 1, 0)])],
}

# 1.0 and 1.0005 agree: they differ by less than THRESHOLD_TOLERANCE
THRESHOLDS = (-0.5, 0.0, 1.0, 1.0005, 2.0)
AGREEING = (1.0, 1.0005)


def _walk(ops):
    for op in ops:
        yield op
        if op[0] == "if":
            yield from _walk(op[2] + op[3])


def _counts(ops) -> tuple[int, int]:
    """The number of flags and of outputs ``ops`` use."""
    return (max((op[1] + 1 for op in _walk(ops) if op[0] == "if"), default=0),
            max(op[2] + 1 for op in _walk(ops) if op[0] == "copy"))


def random_session(seed: int) -> list:
    """A few convolutions and ReLUs, each on an earlier tensor, up to two branches on a flag
    whose arms clamp and copy, and copies out; the last tensor is always copied out."""
    rng = random.Random(seed)
    tensors, flags, outs, ops = 1, 0, 0, []

    def operand():
        return tensors - 1 if rng.random() < 0.6 else rng.randrange(tensors)

    def clamp_or_copy():
        nonlocal outs
        if rng.random() < 0.5:
            return ("relu", operand(), rng.choice(THRESHOLDS))
        outs += 1
        return ("copy", operand(), outs - 1)

    for _ in range(rng.randint(3, 7)):
        roll = rng.random()
        if roll < 0.35 or tensors == 1:
            ops.append(("conv", operand()))
            tensors += 1
        elif roll < 0.8 or flags == 2:
            ops.append(clamp_or_copy())
        else:
            arms = [[clamp_or_copy() for _ in range(rng.randint(0, 2))] for _ in range(2)]
            ops.append(("if", flags, *arms))
            flags += 1
    ops.append(("copy", tensors - 1, outs))
    return ops


def build_session(ops, *, fusion: bool, size: int = 8, filter_size: int = 3):
    """Parameters: the input, the filter, each flag, then each output."""
    flag_count, out_count = _counts(ops)

    def generate(ctx):
        session = NnSession(ctx, fusion=fusion)
        tensors = [session.tensor(size, ctx.parameter("float*"))]
        filt = session.tensor(filter_size, ctx.parameter("float*"))
        flags = [ctx.parameter("int") for _ in range(flag_count)]
        outs = [ctx.parameter("float*") for _ in range(out_count)]

        def run(ops):
            for op in ops:
                if op[0] == "conv":
                    tensors.append(session.convolve(tensors[op[1]], filt))
                elif op[0] == "relu":
                    session.relu(tensors[op[1]], op[2])
                elif op[0] == "copy":
                    ctx.runtime("runtime::memcpy", outs[op[2]], tensors[op[1]].buffer, size * 4)
                else:
                    ctx.if_else(flags[op[1]], lambda: run(op[2]), lambda: run(op[3]))

        run(ops)

    return run_staged(generate, name="session")


def run_session(program, data, weight, flags):
    inputs = {"arg0": data.copy(), "arg1": weight.copy()}
    params = [name for name, _ in program.params[2:]]
    inputs.update(zip(params, flags))
    inputs.update((name, np.zeros(len(data), np.float32)) for name in params[len(flags):])
    return interpret_program(program, inputs)


def _snapped(ops, threshold):
    """The session with each agreeing threshold replaced by ``threshold``."""
    def snap(op):
        if op[0] == "relu" and op[2] in AGREEING:
            return ("relu", op[1], threshold)
        if op[0] == "if":
            return ("if", op[1], _snapped(op[2], threshold), _snapped(op[3], threshold))
        return op
    return [snap(op) for op in ops]


def check_against_unfused(ops, data, weight, *, size=8, filter_size=3):
    """The fused build computes what the ``fusion=False`` build computes, on every flag setting.

    Outputs are bit-identical, except that two agreeing thresholds fuse into one clamp: an
    element may then differ, but only where a pre-clamp value lies between them, which shows
    as the unfused build clamping all agreeing thresholds at the lower one and at the higher
    one giving two different values there.  Each convolution merges its cell at most twice.
    Returns the fused build's statistics.
    """
    fused, stats = build_session(ops, fusion=True, size=size, filter_size=filter_size)
    unfused, unfused_stats = build_session(ops, fusion=False, size=size, filter_size=filter_size)
    convolutions = sum(op[0] == "conv" for op in _walk(ops))
    assert stats.runs == stats.merges + 1 <= 1 + 2 * convolutions
    assert unfused_stats.runs == 1
    for flags in itertools.product((0, 1), repeat=_counts(ops)[0]):
        got = run_session(fused, data, weight, flags)
        want = run_session(unfused, data, weight, flags)
        if all(np.array_equal(got[name], want[name]) for name in want):
            continue
        low, high = (run_session(build_session(_snapped(ops, t), fusion=False, size=size,
                                               filter_size=filter_size)[0], data, weight, flags)
                     for t in AGREEING)
        for name in want:
            differs = np.not_equal(got[name], want[name])  # the flags too, which never differ
            assert not differs.any() or np.not_equal(low[name], high[name])[differs].all(), (
                ops, flags, name)
    return stats


def _fusion_case_inputs(size=16, filter_size=3):
    rng = np.random.default_rng(0)
    return (rng.standard_normal(size).astype(np.float32),
            rng.standard_normal(filter_size).astype(np.float32))


class TestReadsBeforeRelu:
    """A read of a convolution's output before its ReLU requires F: no fusion."""

    @pytest.mark.parametrize("case", sorted(FUSION_CASES))
    def test_fused_build_matches_unfused(self, case):
        data, weight = _fusion_case_inputs()
        stats = check_against_unfused(FUSION_CASES[case], data, weight, size=16)
        assert stats.merge_log[-1].new_value == FALSE_TOP_F

    @pytest.mark.parametrize("case", sorted(FUSION_CASES))
    def test_no_clamp_is_fused(self, case):
        program, _ = build_session(FUSION_CASES[case], fusion=True, size=16)
        unfused, _ = build_session(FUSION_CASES[case], fusion=False, size=16)
        assert emit_c(program) == emit_c(unfused)

    def test_agreeing_thresholds_differ_only_between_them(self):
        # both arms' ReLUs fuse into one clamp at 1.0; the convolution is the input, and the
        # unfused else arm clamps its elements 1.0002, 1.0003 and 1.0 at 1.0005, the fused one not
        ops = [("conv", 0), ("if", 0, [("relu", 1, 1.0), ("copy", 1, 0)],
                             [("relu", 1, 1.0005), ("copy", 1, 0)])]
        data = np.array([1.0002, 0.5, 1.5, -1.0, 1.0003, 3.0, 0.9995, 1.0], np.float32)
        weight = np.array([1.0, 0.0, 0.0], np.float32)
        stats = check_against_unfused(ops, data, weight)
        assert [event.new_value for event in stats.merge_log] == [next_is_relu(1.0)]
        fused = run_session(build_session(ops, fusion=True)[0], data, weight, (0,))
        unfused = run_session(build_session(ops, fusion=False)[0], data, weight, (0,))
        assert list(np.flatnonzero(fused["arg3"] != unfused["arg3"])) == [0, 4, 7]


SESSIONS_PER_ITEM = 4


@pytest.mark.parametrize("item", range(50))
def test_generated_sessions_match_unfused(item):
    rng = np.random.default_rng(item)
    for seed in range(item * SESSIONS_PER_ITEM, (item + 1) * SESSIONS_PER_ITEM):
        data = (rng.standard_normal(8) * 2).astype(np.float32)
        weight = rng.standard_normal(3).astype(np.float32)
        check_against_unfused(random_session(seed), data, weight)
