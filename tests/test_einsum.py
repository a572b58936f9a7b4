import numpy as np
import pytest

from prophecy.einsum import (
    EinsumError,
    EinsumSession,
    Index,
    TRUE_TOP,
    TrueTopLattice,
    build_matmul_benchmark,
    build_matvec_benchmark,
    einsum_assign,
    movement_summary,
)
from prophecy.interp import interpret_program
from prophecy.second_stage import ForLoop, IfElse, RuntimeCall, emit_c
from prophecy.staging import ProphecyStore, StageContext, run_staged


def fresh_session(strategy="prophecy", **kw):
    ctx = StageContext(ProphecyStore(), run_index=1, name="t")
    return EinsumSession(ctx, strategy, **kw)


def count_loops(stmts):
    total = 0
    for stmt in stmts:
        if isinstance(stmt, ForLoop):
            total += 1 + count_loops(stmt.body)
        elif isinstance(stmt, IfElse):
            total += count_loops(stmt.then_body) + count_loops(stmt.else_body or [])
    return total


class TestTrueTop:
    def test_contract(self):
        assert TRUE_TOP.satisfies("F", "F")
        assert TRUE_TOP.satisfies("T", "F")
        assert TRUE_TOP.satisfies("T", "T")
        assert not TRUE_TOP.satisfies("F", "T")
        assert TRUE_TOP.merge("F", "T") == "T"
        assert TRUE_TOP.rank("F") == 0
        assert TRUE_TOP.rank("T") == 1 == TRUE_TOP.max_rank


class TestTensorNew:
    def test_host_allocation_recorded(self):
        session = fresh_session()
        session.tensor("a", [2, 3])
        prog = session.ctx.finish()
        assert "runtime::malloc(24)" in emit_c(prog)
        assert "cuda_malloc" not in emit_c(prog)

    def test_copy_all_always_allocates_device(self):
        session = fresh_session("copy_all")
        session.tensor("a", [2, 3])
        assert "runtime::cuda_malloc(24)" in emit_c(session.ctx.finish())

    def test_unified_single_allocation(self):
        session = fresh_session("unified")
        session.tensor("a", [4])
        text = emit_c(session.ctx.finish())
        assert text.count("runtime::malloc") == 1
        assert "cuda_malloc" not in text

    def test_nonpositive_size_rejected(self):
        session = fresh_session()
        with pytest.raises(EinsumError, match="positive"):
            session.tensor("a", [0, 3])

    @pytest.mark.parametrize("name, size", [("max_bid", 0), ("max_tid", -2), ("max_bid", 2.0),
                                            ("max_tid", True), ("max_bid", "4")])
    def test_grid_that_is_not_a_positive_int_rejected(self, name, size):
        # a zero grid used to record kernel loops with step 0
        with pytest.raises(EinsumError, match=f"^{name} must be a positive int, got {size!r}$"):
            fresh_session(**{name: size})

    @pytest.mark.parametrize("sizes", [[2.5], [2, 3.0], [True], [2, False], ["4"]])
    def test_non_int_size_rejected(self, sizes):
        session = fresh_session()
        with pytest.raises(EinsumError, match=r"tensor 'a' needs int sizes"):
            session.tensor("a", sizes)

    def test_session_keeps_the_manifest(self):
        session = fresh_session("copy_all", max_bid=2, max_tid=3)
        session.tensor("a", [2, 3])
        session.tensor("b", [4], buffer=session.ctx.parameter("float*"))
        assert session.ctx.finish().meta == {
            "tensors": {
                "a": {"host": "var0", "device": "var1", "sizes": [2, 3]},
                "b": {"host": "arg0", "device": "var2", "sizes": [4]},
            },
            "strategy": "copy_all",
            "grid": [2, 3],
        }

    def test_duplicate_name_rejected(self):
        session = fresh_session()
        session.tensor("a", [1])
        with pytest.raises(EinsumError, match="duplicate"):
            session.tensor("a", [1])

    def test_tensor_that_outlives_its_session_rejected(self):
        # a tensor refers to its session weakly, so the session's registry makes no cycle
        a = fresh_session().tensor("a", [4])
        with pytest.raises(EinsumError, match="^tensor 'a' outlived its EinsumSession$"):
            a[Index("i")] = 1.0


class TestLowering:
    def test_matmul_statement_shape(self):
        session = fresh_session()
        ctx = session.ctx
        i, j, k = Index("i"), Index("j"), Index("k")
        a = session.tensor("a", [2, 3])
        b = session.tensor("b", [3, 4])
        c = session.tensor("c", [2, 4])
        c[i, j] += a[i, k] * b[k, j]
        text = emit_c(ctx.finish())
        # two outer loops, reduction loop, accumulator initialized to 0
        assert "float var5 = 0.0;" in text
        assert text.count("for (") == 3

    def test_constant_store(self):
        session = fresh_session()
        i, j = Index("i"), Index("j")
        x = session.tensor("x", [2, 2])
        x[i, j] = 3.0
        text = emit_c(session.ctx.finish())
        assert "= 3.0;" in text
        assert text.count("for (") == 2

    def test_chained_subscript_forms(self):
        session = fresh_session()
        i, j, k = Index("i"), Index("j"), Index("k")
        a = session.tensor("a", [2, 3])
        b = session.tensor("b", [3, 2])
        c = session.tensor("c", [2, 2])
        a[i][j] = 3.0
        c[i][j] += a[i][k] * b[k][j]
        assert count_loops(session.ctx.finish().body) == 5

    def test_constant_too_large_for_a_float_rejected(self):
        session = fresh_session()
        i = Index("i")
        x = session.tensor("x", [2])
        z = session.tensor("z", [2])
        with pytest.raises(EinsumError, match="constant of 1329 bits does not fit in a float"):
            z[i] = x[i] * 10**400

    def test_index_arithmetic_in_rhs(self):
        session = fresh_session()
        i, j = Index("i"), Index("j")
        b = session.tensor("b", [2, 2])
        b[i, j] = 4.0 + i + j
        text = emit_c(session.ctx.finish())
        assert "(4.0 + var1) + var2" in text

    def test_reduction_in_plain_assign_rejected(self):
        session = fresh_session()
        i, k = Index("i"), Index("k")
        a = session.tensor("a", [2, 3])
        c = session.tensor("c", [2])
        with pytest.raises(EinsumError, match="cannot reduce"):
            c[i] = a[i, k]

    def test_index_range_mismatch_rejected(self):
        session = fresh_session()
        i, j = Index("i"), Index("j")
        a = session.tensor("a", [2, 3])
        with pytest.raises(EinsumError, match="ranges over"):
            a[i, j] = a[j, i]  # j would need ranges 3 and 2 at once

    def test_ranges_rebind_across_statements(self):
        session = fresh_session()
        i, j = Index("i"), Index("j")
        a = session.tensor("a", [2, 3])
        b = session.tensor("b", [3, 4])
        a[i, j] = 1.0
        b[i, j] = 2.0  # same indices, different ranges: fine per statement
        assert count_loops(session.ctx.finish().body) == 4

    def test_mul_assign_unit_accumulator(self):
        session = fresh_session()
        i, k = Index("i"), Index("k")
        a = session.tensor("a", [2, 3])
        c = session.tensor("c", [2])
        c[i] *= a[i, k]
        text = emit_c(session.ctx.finish())
        assert "float var3 = 1.0;" in text

    def test_row_major_flat_index_non_square(self):
        session = fresh_session()
        i, j = Index("i"), Index("j")
        a = session.tensor("a", [2, 5])
        a[i, j] = 1.0
        text = emit_c(session.ctx.finish())
        assert "[(var1 * 5) + var2]" in text


class TestRunOnGpu:
    def test_nested_gpu_context_rejected(self):
        def generate(ctx):
            session = EinsumSession(ctx, "prophecy")

            def kernel():
                session.run_on_gpu(lambda: None)

            session.run_on_gpu(kernel)

        with pytest.raises(EinsumError, match="nested"):
            run_staged(generate)

    @pytest.mark.parametrize("strategy", ["prophecy", "copy_all", "unified"])
    def test_tensor_created_in_kernel_rejected(self, strategy):
        def generate(ctx):
            session = EinsumSession(ctx, strategy)
            i = Index("i")

            def kernel():
                t = session.tensor("t", [4])
                t[i] = 1.0

            session.run_on_gpu(kernel)

        with pytest.raises(EinsumError, match="cannot be created inside run_on_gpu"):
            run_staged(generate)

    def test_kernel_reading_another_sessions_tensor_names_that_session(self):
        def generate(ctx):
            other, session = EinsumSession(ctx, "unified"), EinsumSession(ctx, "prophecy")
            i = Index("i")
            t, c = other.tensor("t", [4]), session.tensor("c", [4])
            session.run_on_gpu(lambda: c.__setitem__(i, t[i]))

        with pytest.raises(EinsumError) as raised:
            run_staged(generate)
        assert str(raised.value) == "tensor 't' belongs to another EinsumSession (strategy 'unified')"

    def test_partial_gpu_store_keeps_the_rest_of_its_tensor(self):
        # the kernel writes only z's diagonal, and the host then reads all of z
        def generate(ctx, strategy):
            session = EinsumSession(ctx, strategy, max_bid=2, max_tid=2)
            i, j = Index("i"), Index("j")
            x = session.tensor("x", [4, 4], buffer=ctx.parameter("float*"))
            out = session.tensor("out", [4, 4], buffer=ctx.parameter("float*"))
            z = session.tensor("z", [4, 4])
            z[i, j] = x[i, j] + 1.0
            session.run_on_gpu(lambda: z.__setitem__((i, i), x[i, i] * 2.0))
            out[i, j] = z[i, j]

        x = np.random.default_rng(3).random((4, 4), dtype=np.float32)
        expected = x + np.float32(1.0)
        np.fill_diagonal(expected, x.diagonal() * np.float32(2.0))
        for strategy in ("prophecy", "copy_all", "unified"):
            prog, stats = run_staged(lambda ctx: generate(ctx, strategy))
            out = interpret_program(prog, {"arg0": x, "arg1": np.zeros(16)})
            assert out["arg1"].tobytes() == expected.ravel().tobytes(), strategy
            if strategy == "prophecy":  # z is copied in before the kernel writes part of it
                moves = movement_summary(prog)
                assert (moves.copied_to_device, moves.copied_to_host) == ({"x", "z"}, {"z"})
                assert stats.runs == stats.merges + 1 == 5

    def test_grid_loops_recorded(self):
        prog, _ = build_matmul_benchmark(2, 2, 2, "unified", max_bid=3, max_tid=5)
        text = emit_c(prog)
        assert "var6 < 3" in text or "< 3;" in text
        assert "< 5;" in text
        assert "runtime::grid_sync();" in text


class TestMatmulBenchmark:
    def test_prophecy_movement_is_exact(self):
        prog, stats = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        moves = movement_summary(prog)
        # the kernel reads x and y and writes z; buffer tensors stay on host
        assert moves.device_allocations == {"x", "y", "z"}
        assert moves.copied_to_device == {"x", "y"}
        assert moves.copied_to_host == {"z"}

    def test_prophecy_run_accounting(self):
        prog, stats = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        assert stats.runs == stats.merges + 1
        assert stats.runs == 6  # needs_gpu for x, y, z plus gpu_read for x, y

    def test_merges_name_their_cells_in_order(self):
        _, stats = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        assert [event.name for event in stats.merge_log] == [
            "needs_gpu[z]", "needs_gpu[x]", "gpu_read[x]", "needs_gpu[y]", "gpu_read[y]",
        ]

    def test_copy_all_single_run_and_full_movement(self):
        prog, stats = build_matmul_benchmark(4, 4, 4, "copy_all", max_bid=2, max_tid=4)
        assert stats.runs == 1
        moves = movement_summary(prog)
        assert moves.device_allocations == {"x", "x_b", "y", "y_b", "z", "z_b"}
        assert moves.copied_to_device == {"x", "x_b", "y", "y_b", "z", "z_b"}
        assert moves.copied_to_host == {"x", "x_b", "y", "y_b", "z", "z_b"}

    def test_unified_has_no_copies(self):
        prog, stats = build_matvec_benchmark(4, 4, "unified", max_bid=2, max_tid=4)
        assert stats.runs == 1
        moves = movement_summary(prog)
        assert not moves.device_allocations
        assert not moves.copied_to_device
        assert not moves.copied_to_host

    def test_movement_matches_independent_readwrite_analysis(self):
        # independent read/write scan of the kernel's einsum expression:
        # z[i,j] += x[i,k] * y[k,j] reads {x, y} and writes {z}
        from prophecy.einsum import TensorAccess, TensorTerm

        def tensors_read(term):
            if isinstance(term, TensorAccess):
                return [term.tensor]
            if isinstance(term, TensorTerm):
                return tensors_read(term.left) + tensors_read(term.right)
            return []

        session = fresh_session()
        i, j, k = Index("i"), Index("j"), Index("k")
        x = session.tensor("x", [2, 2])
        y = session.tensor("y", [2, 2])
        reads = {t.name for t in tensors_read(x[i, k] * y[k, j])}
        assert reads == {"x", "y"}

        prog, _ = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        moves = movement_summary(prog)
        assert moves.copied_to_device == reads
        assert moves.copied_to_host == {"z"}

    def test_interpreted_matmul_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        m, n, o = 8, 8, 8
        x = rng.random((m, n), dtype=np.float32)
        y = rng.random((n, o), dtype=np.float32)
        prog, _ = build_matmul_benchmark(m, n, o, "prophecy", max_bid=4, max_tid=8)
        out = interpret_program(prog, {"arg0": x, "arg1": y, "arg2": np.zeros(m * o)})
        got = out["arg2"].reshape(m, o)
        ref = np.zeros((m, o), dtype=np.float32)
        for i in range(m):
            for j in range(o):
                acc = np.float32(0.0)
                for k in range(n):
                    acc = acc + x[i, k] * y[k, j]
                ref[i, j] = acc
        assert np.abs(got - ref).max() <= 1e-5

    def test_strategies_agree_bit_for_bit(self):
        rng = np.random.default_rng(1)
        m, n, o = 5, 3, 4
        x = rng.random((m, n), dtype=np.float32)
        y = rng.random((n, o), dtype=np.float32)
        results = []
        for strategy in ("prophecy", "copy_all", "unified"):
            prog, _ = build_matmul_benchmark(m, n, o, strategy, max_bid=2, max_tid=4)
            out = interpret_program(prog, {"arg0": x, "arg1": y, "arg2": np.zeros(m * o)})
            results.append(out["arg2"])
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_identity_inputs(self):
        m = 4
        eye = np.eye(m, dtype=np.float32)
        prog, _ = build_matmul_benchmark(m, m, m, "prophecy", max_bid=2, max_tid=4)
        out = interpret_program(prog, {"arg0": eye, "arg1": eye, "arg2": np.zeros(m * m)})
        assert np.array_equal(out["arg2"].reshape(m, m), eye)

    def test_deterministic_rebuild(self):
        a = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        b = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
        assert emit_c(a[0]) == emit_c(b[0])
        assert a[1].runs == b[1].runs
        assert a[1].merge_log == b[1].merge_log


class TestPerKernelReadCells:
    def test_tensor_read_in_first_kernel_only_is_not_copied_later(self):
        def generate(ctx):
            session = EinsumSession(ctx, "prophecy", max_bid=2, max_tid=2)
            i = Index("i")
            a = session.tensor("a", [4])
            b = session.tensor("b", [4])
            c = session.tensor("c", [4])
            a[i] = 1.0
            b[i] = 2.0
            session.run_on_gpu(lambda: _assign(c, i, a))  # reads a only
            session.run_on_gpu(lambda: _assign(c, i, b))  # reads b only

        def _assign(dst, i, src):
            dst[i] = src[i] + 0.0

        prog, stats = run_staged(generate)
        # copies_in per kernel: scan each kernel's preceding copy block
        copies = []
        current = []
        for stmt in prog.body:
            if isinstance(stmt, RuntimeCall) and stmt.name == "runtime::cudaMemcpyToDevice":
                current.append(stmt.args[0].name)
            elif isinstance(stmt, ForLoop):
                if current or copies:
                    copies.append(current)
                    current = []
        by_device = {
            info["device"]: name
            for name, info in prog.meta["tensors"].items()
            if info["device"]
        }
        kernel_copies = [sorted(by_device[v] for v in group) for group in copies if group]
        assert kernel_copies == [["a"], ["b"]]


class TestMatvecBenchmark:
    def test_movement_and_accounting(self):
        prog, stats = build_matvec_benchmark(6, 5, "prophecy", max_bid=2, max_tid=4)
        moves = movement_summary(prog)
        assert moves.device_allocations == {"x", "y", "z"}
        assert moves.copied_to_device == {"x", "y"}
        assert moves.copied_to_host == {"z"}
        assert stats.runs == stats.merges + 1

    def test_interpretation_matches_numpy(self):
        rng = np.random.default_rng(2)
        m, n = 6, 5
        x = rng.random((m, n), dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        prog, _ = build_matvec_benchmark(m, n, "prophecy", max_bid=2, max_tid=4)
        out = interpret_program(prog, {"arg0": x, "arg1": y, "arg2": np.zeros(m)})
        ref = np.zeros(m, dtype=np.float32)
        for i in range(m):
            acc = np.float32(0.0)
            for k in range(n):
                acc = acc + x[i, k] * y[k]
            ref[i] = acc
        assert np.abs(out["arg2"] - ref).max() <= 1e-5

    def test_single_output_index_uses_flat_thread(self):
        prog, _ = build_matvec_benchmark(4, 4, "unified", max_bid=2, max_tid=4)
        text = emit_c(prog)
        assert "int var8 = (var6 * 4) + var7;" in text  # bid * max_tid + tid
