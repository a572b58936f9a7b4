import numpy as np
import pytest

from prophecy.interp import InterpError, interpret_program
from prophecy.second_stage import Assign, Binary, IntLit, SecondStageProgram, Unary, VarRef
from prophecy.staging import ProphecyStore, StageContext


def ctx_named(name="t"):
    return StageContext(ProphecyStore(), run_index=1, name=name)


class TestBasics:
    def test_zero_statements_outputs_equal_inputs(self):
        prog = SecondStageProgram("idle", (("buf", "float*"), ("n", "int")), [])
        out = interpret_program(prog, {"buf": [1.0, 2.0], "n": 7})
        np.testing.assert_array_equal(out["buf"], np.float32([1.0, 2.0]))
        assert out["n"] == 7

    def test_loop_writes_buffer(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.for_loop(0, 4, 1, lambda i: ctx.assign(buf[i], i * 2))
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(4)})
        np.testing.assert_array_equal(out["arg0"], np.float32([0, 2, 4, 6]))

    def test_branch_on_scalar_parameter(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        flag = ctx.parameter("int")
        ctx.if_else(flag, lambda: ctx.assign(buf[0], 1.0), lambda: ctx.assign(buf[0], 2.0))
        prog = ctx.finish()
        assert interpret_program(prog, {"arg0": [0.0], "arg1": 1})["arg0"][0] == 1.0
        assert interpret_program(prog, {"arg0": [0.0], "arg1": 0})["arg0"][0] == 2.0

    def test_allocated_buffer_and_copies(self):
        ctx = ctx_named()
        src = ctx.parameter("float*")
        dst = ctx.parameter("float*")
        scratch = ctx.declare("float*", ctx.runtime_expr("runtime::cuda_malloc", 16))
        ctx.runtime("runtime::cudaMemcpyToDevice", scratch, src, 16)
        ctx.runtime("runtime::cudaMemcpyToHost", dst, scratch, 16)
        out = interpret_program(ctx.finish(), {"arg0": [1, 2, 3, 4], "arg1": [0, 0, 0, 0]})
        np.testing.assert_array_equal(out["arg1"], np.float32([1, 2, 3, 4]))

    def test_float32_arithmetic(self):
        # 1e8 + 1 is not representable in float32; stays 1e8
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], buf[0] + 1.0)
        out = interpret_program(ctx.finish(), {"arg0": [1e8]})
        assert out["arg0"][0] == np.float32(1e8)
        assert out["arg0"].dtype == np.float32

    def test_modulo_wraparound_indexing(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        out_buf = ctx.parameter("float*")
        ctx.for_loop(0, 4, 1, lambda i: ctx.assign(out_buf[i], buf[(i + 3) % 4]))
        out = interpret_program(ctx.finish(), {"arg0": [0, 1, 2, 3], "arg1": [0, 0, 0, 0]})
        np.testing.assert_array_equal(out["arg1"], np.float32([3, 0, 1, 2]))


class TestErrors:
    def test_out_of_bounds_is_fatal_with_location(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[9], 1.0)
        with pytest.raises(InterpError, match=r"index 9 out of bounds for arg0"):
            interpret_program(ctx.finish(), {"arg0": [0.0]})

    def test_uninitialized_read_is_fatal_with_location(self):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        scratch = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        ctx.assign(out_buf[0], scratch[2])
        with pytest.raises(InterpError, match=r"uninitialized read at var0\[2\]"):
            interpret_program(ctx.finish(), {"arg0": [0.0]})

    def test_copy_propagates_uninitialized_mask(self):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        a = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        b = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        ctx.assign(a[0], 5.0)
        ctx.runtime("runtime::memcpy", b, a, 16)
        ctx.assign(out_buf[0], b[0])  # fine: a[0] was written before the copy
        prog1 = ctx.finish()
        assert interpret_program(prog1, {"arg0": [0.0]})["arg0"][0] == 5.0

        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        a = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        b = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        ctx.runtime("runtime::memcpy", b, a, 16)
        ctx.assign(out_buf[0], b[1])
        with pytest.raises(InterpError, match="uninitialized read"):
            interpret_program(ctx.finish(), {"arg0": [0.0]})

    def test_use_after_free(self):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        a = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
        ctx.assign(a[0], 1.0)
        ctx.runtime("runtime::free", a)
        ctx.assign(out_buf[0], a[0])
        with pytest.raises(InterpError, match="freed"):
            interpret_program(ctx.finish(), {"arg0": [0.0]})

    def test_missing_input(self):
        prog = SecondStageProgram("p", (("data", "float*"),), [])
        with pytest.raises(InterpError, match="missing input"):
            interpret_program(prog, {})

    @pytest.mark.parametrize(
        "expr, message",
        [
            (Binary("==", IntLit(1), IntLit(1)), "unknown binary operator '=='"),
            (Unary("!", IntLit(0)), "unknown unary operator '!'"),
        ],
    )
    def test_operator_no_recording_produces(self, expr, message):
        prog = SecondStageProgram("p", (("n", "int"),), [Assign(VarRef("n"), expr)])
        with pytest.raises(InterpError, match=message):
            interpret_program(prog, {"n": 0})


class TestGridStyleExecution:
    def test_strided_grid_loops_cover_range(self):
        # mimics the recorded (block, thread) grid: every (bid, tid) pair runs,
        # the strided inner loop partitions the data
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        max_bid, max_tid, n = 3, 4, 10

        def bid_body(bid):
            def tid_body(tid):
                thread = ctx.declare("int", bid * max_tid + tid)

                def work(i):
                    ctx.assign(buf[i], buf[i] + 1.0)

                ctx.for_loop(thread, n, max_bid * max_tid, work)
                ctx.runtime("runtime::grid_sync")

            ctx.for_loop(0, max_tid, 1, tid_body)

        ctx.for_loop(0, max_bid, 1, bid_body)
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(n)})
        np.testing.assert_array_equal(out["arg0"], np.ones(n, dtype=np.float32))

    def test_return_stops_execution(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], 1.0)
        ctx.return_()
        ctx.assign(buf[1], 2.0)
        out = interpret_program(ctx.finish(), {"arg0": [0.0, 0.0]})
        np.testing.assert_array_equal(out["arg0"], np.float32([1.0, 0.0]))

    def test_interpretation_is_deterministic(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        acc = ctx.declare("float", 0.0)

        def body(i):
            ctx.assign(acc, acc + buf[i] * 0.1)
            ctx.assign(buf[i], acc)

        ctx.for_loop(0, 8, 1, body)
        prog = ctx.finish()
        data = np.linspace(0, 1, 8)
        out1 = interpret_program(prog, {"arg0": data})
        out2 = interpret_program(prog, {"arg0": data})
        np.testing.assert_array_equal(out1["arg0"], out2["arg0"])
