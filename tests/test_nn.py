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
from prophecy.staging import MispredictionSignal, ProphecyStore, StageContext, run_staged


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
