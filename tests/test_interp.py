import re
import signal
import sys
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest

from prophecy import interp
from prophecy.interp import InterpError, interpret_program
from prophecy.second_stage import (
    ArrayIndex, Assign, Binary, Declare, FloatLit, ForLoop, IfElse, IntLit, RuntimeCall,
    SecondStageProgram, VarRef, iter_stmts,
)
from prophecy.staging import ProphecyStore, StageContext, StagingError
from test_pins import INTERPRETED, compiled_source


def ctx_named(name="t"):
    return StageContext(ProphecyStore(), run_index=1, name=name)


def _refused_recording(statement):
    """A recorder holding an out-of-bounds store, which would raise if the program ran, then
    ``statement``; building the program is left to the caller."""
    ctx = ctx_named()
    buf = ctx.parameter("float*")
    ctx.assign(buf[9], 1.0)
    statement(ctx, buf)
    return ctx


def _found_pointer_to_float(ctx, buf):
    p = ctx.declare("float*", buf)
    ctx.assign(p, 1)  # the first of C's three refusals here
    ctx.assign(buf[ctx.declare("float", p)], 5.0)


def _float_remainder(ctx, buf):
    v = ctx.declare("float", 7.5)
    ctx.assign(buf[0], v % 2)


# Programs C's types refuse, each with the ValueError building the program gives.
REFUSED = {
    "pointer stored as an element": (lambda ctx, buf: ctx.assign(buf[0], buf),
                                     "pointer arg0 used as a number"),
    "pointer as an index": (lambda ctx, buf: ctx.assign(buf[0], buf[buf]),
                            "pointer arg0 used as a number"),
    "pointer stored at a float index": (lambda ctx, buf: ctx.assign(buf[buf[0]], buf),
                                        "pointer arg0 used as a number"),  # the value first
    "pointer arithmetic": (lambda ctx, buf: ctx.assign(buf[0], (buf + 1)[0]),
                           "pointer arg0 used as a number"),
    "pointer in a float": (lambda ctx, buf: ctx.declare("float", buf),
                           "float var0 cannot hold a buffer"),
    "pointer as a copy size": (lambda ctx, buf: ctx.runtime("runtime::memcpy", buf, buf, buf),
                               "pointer arg0 used as a number"),
    "pointer as an allocation size": (
        lambda ctx, buf: ctx.declare("float*", ctx.runtime_expr("runtime::malloc", buf)),
        "pointer arg0 used as a number"),
    "allocation in an int": (
        lambda ctx, buf: ctx.declare("int", ctx.runtime_expr("runtime::malloc", 4)),
        "int var0 cannot hold a buffer"),
    "allocation as a factor": (
        lambda ctx, buf: ctx.assign(buf[0], ctx.runtime_expr("runtime::malloc", 4) * 2),
        "pointer runtime::malloc used as a number"),
    "pointer assigned to a float parameter": (
        lambda ctx, buf: ctx.assign(ctx.parameter("float"), buf), "float arg1 cannot hold a buffer"),
    "int given a pointer, then a float": (_found_pointer_to_float,
                                          "float* var0 cannot hold a number"),
    "int in a pointer": (lambda ctx, buf: ctx.declare("float*", 3),
                         "float* var0 cannot hold a number"),
    "int parameter in a pointer": (lambda ctx, buf: ctx.declare("float*", ctx.parameter("int")),
                                   "float* var0 cannot hold a number"),
    "load in a pointer": (lambda ctx, buf: ctx.declare("float*", buf[0]),
                          "float* var0 cannot hold a number"),
    "int assigned to a pointer parameter": (lambda ctx, buf: ctx.assign(buf, 1),
                                            "float* arg0 cannot hold a number"),
    "int variable indexed": (lambda ctx, buf: ctx.assign(buf[0], ctx.declare("int", 1)[0]),
                             "var0 is indexed but is no float* variable"),
    "float parameter indexed": (lambda ctx, buf: ctx.assign(ctx.parameter("float")[0], 1.0),
                                "arg1 is indexed but is no float* variable"),
    "load indexed": (lambda ctx, buf: ctx.assign(buf[0], buf[0][1]),
                     "arg0[0] is indexed but is no float* variable"),
    "allocation indexed": (
        lambda ctx, buf: ctx.assign(ctx.runtime_expr("runtime::malloc", 16)[0], 1.0),
        "runtime::malloc(16) is indexed but is no float* variable"),
    "float variable as an index": (lambda ctx, buf: ctx.assign(buf[ctx.declare("float", 1)], 1.0),
                                   "index var0 into arg0 is a float"),
    "float literal as an index": (lambda ctx, buf: ctx.assign(buf[0], buf[1.0]),
                                  "index 1.0 into arg0 is a float"),
    "load as an index": (lambda ctx, buf: ctx.assign(buf[buf[0]], 1.0),
                         "index arg0[0] into arg0 is a float"),
    "float arithmetic as an index": (lambda ctx, buf: ctx.assign(buf[0], buf[(buf[1] < 1.0) + 0.5]),
                                     "index (arg0[1] < 1.0) + 0.5 into arg0 is a float"),
    "int as a copy source": (
        lambda ctx, buf: ctx.runtime("runtime::memcpy", buf, ctx.declare("int", 1), 4),
        "runtime::memcpy: var0 is no pointer"),
    "float as a copy destination": (
        lambda ctx, buf: ctx.runtime("runtime::cudaMemcpyToHost", ctx.parameter("float"), buf, 4),
        "runtime::cudaMemcpyToHost: arg1 is no pointer"),
    "remainder of a float variable": (_float_remainder, "% with a float operand"),
    "remainder of a load": (lambda ctx, buf: ctx.assign(buf[0], buf[0] % 2),
                            "% with a float operand"),
    "remainder by a float literal": (lambda ctx, buf: ctx.assign(buf[0], ctx.lift(2) % 1.5),
                                     "% with a float operand"),
    "remainder of float arithmetic": (
        lambda ctx, buf: ctx.assign(buf[0], ctx.lift(3) % (ctx.lift(1) + buf[1] * 2)),
        "% with a float operand"),
}


_ELEMENT = lambda index: ArrayIndex(VarRef("arg0"), index)

# Statements the recorder never makes, each with the ValueError building the program
# ``_hand_built_program`` makes of it gives.  C compiles ``float var0 = var0;`` but reads an
# indeterminate value, and refuses a read before a declaration or of a name never declared
# (``'var0' was not declared in this scope``) and a parameter declared again in the function's
# block.  An int literal that holds a float is refused when the literal is built, and a value or
# statement that is no second-stage node when the program is.
HAND_BUILT = {
    "declaration that reads itself": (lambda: Declare("var0", "float", VarRef("var0")),
                                      "variable var0 is not yet declared"),
    "read before a declaration in its block": (
        lambda: IfElse(IntLit(1), [Assign(_ELEMENT(IntLit(0)), VarRef("var0")),
                                   Declare("var0", "float", FloatLit(1.0))], None),
        "variable var0 is not yet declared"),
    "read before a later block's declaration": (
        lambda: IfElse(IntLit(1), [Assign(_ELEMENT(IntLit(0)), VarRef("var0"))],
                       [Declare("var0", "float", FloatLit(1.0))]),
        "variable var0 is not yet declared"),
    "read of a name never declared": (lambda: Assign(_ELEMENT(IntLit(0)), VarRef("var9")),
                                      "variable 'var9' is never declared"),
    "parameter declared again": (lambda: Declare("arg0", "float", FloatLit(1.0)),
                                 "duplicate variable name 'arg0'"),
    "non-int literal as a store index": (lambda: Assign(_ELEMENT(IntLit(2.5)), FloatLit(1.0)),
                                         "integer literal is not an int: 2.5"),
    "non-int literal as a load index": (lambda: Assign(_ELEMENT(IntLit(0)), _ELEMENT(IntLit(2.5))),
                                        "integer literal is not an int: 2.5"),
    "non-int literal under %": (
        lambda: Assign(_ELEMENT(Binary("%", IntLit(3), IntLit(2.5))), FloatLit(1.0)),
        "integer literal is not an int: 2.5"),
    "declared value that is no node": (lambda: Declare("var0", "int", "hello"),
                                       "not an expression: 'hello'"),
    "statement that is no node": (lambda: "x", "not a statement: 'x'"),
}


def _hand_built_program(case):
    return SecondStageProgram("hand", (("arg0", "float*"),), [HAND_BUILT[case][0]()])


def _comparison_sum(ctx, buf):
    both = lambda: (buf[0] < 1.0) + (buf[1] < 1.0)  # numpy's bool + bool would be an or
    ctx.assign(buf[2], ctx.declare("float", both()))
    ctx.assign(buf[3], both())
    ctx.assign(buf[ctx.declare("int", both())], 7.0)


# Programs in which C takes a comparison as an int, 0 or 1, each with the output C gives on zeros.
C_COMPARISONS = {
    "comparison of a load as an index": (lambda ctx, buf: ctx.assign(buf[buf[0] < 1.0], 6.0),
                                         [0, 6, 0, 0]),
    "comparison of ints as an index": (lambda ctx, buf: ctx.assign(buf[ctx.lift(1) < 2], 6.0),
                                       [0, 6, 0, 0]),
    "remainder of a comparison as an index": (
        lambda ctx, buf: ctx.assign(buf[(buf[0] < 1.0) % 3], 6.0), [0, 6, 0, 0]),
    "sum of comparisons": (_comparison_sum, [0, 0, 7, 2]),
}


def _comparison_program(case):
    ctx = ctx_named(case.replace(" ", "_"))
    C_COMPARISONS[case][0](ctx, ctx.parameter("float*"))
    return ctx.finish()


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

    def test_float32_overflow_is_inf_without_a_warning(self):
        # as in C, a product past float32's range is inf, and nothing is said
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], buf[0] * buf[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = interpret_program(ctx.finish(), {"arg0": [1e30]})
        assert out["arg0"][0] == np.inf

    def test_scalar_parameter_returns_its_final_value(self):
        prog = SecondStageProgram("p", (("n", "int"),), [Assign(VarRef("n"), IntLit(5))])
        assert interpret_program(prog, {"n": 1}) == {"n": 5}

    def test_loop_variable_after_its_loop(self):
        # out of scope in C, so refused when the program is built, even in a branch never taken
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        held = []
        ctx.for_loop(0, 4, 1, held.append)
        ctx.for_loop(0, 4, 1, lambda i: ctx.assign(buf[i], 1.0))
        ctx.if_else(buf[0] > 9.0, lambda: ctx.assign(buf[0], held[0]))
        with pytest.raises(ValueError, match="^loop variable var0 is used outside its loop$"):
            ctx.finish()

    def test_assigned_loop_variable(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.for_loop(0, 4, 1, lambda i: ctx.if_else(buf[i] > 9.0, lambda: ctx.assign(i, 4)))
        with pytest.raises(ValueError, match="^loop variable var0 is assigned$"):
            ctx.finish()

    @pytest.mark.parametrize("start, written", [(0.5, [1, 1, 0]), (-0.5, [1, 1, 0]),
                                                 (1.75, [0, 1, 0]), ("arg1", [0, 1, 0])])
    def test_float_start_truncates_toward_zero(self, start, written):
        # C's int var0 = start; the float parameter arg1 holds 1.5
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        x = ctx.parameter("float")
        ctx.for_loop(x if start == "arg1" else start, 2, 1, lambda i: ctx.assign(buf[i], 1.0))
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(3), "arg1": 1.5})
        np.testing.assert_array_equal(out["arg0"], np.float32(written))

    def test_int_variables_hold_what_c_stores(self):
        # int var0 = 2.5 holds 2; an int variable or parameter assigned -2.75 holds -2
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")
        k = ctx.declare("int", 2.5)
        ctx.assign(buf[k], 1.0)
        m = ctx.declare("int", 0)
        ctx.assign(m, buf[k] * 0.5 + 0.25)
        ctx.assign(buf[m], 2.0)
        ctx.assign(n, -2.75)
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(3), "arg1": 7})
        np.testing.assert_array_equal(out["arg0"], np.float32([2, 0, 1]))
        assert out["arg1"] == -2 and type(out["arg1"]) is int

    # % by a positive int literal prints as Python's % only where its left side is provably
    # >= 0: built of int literals >= 0, loop variables that start at such a value, + and *.
    # It must print atomic: a printer without the parentheses printed (3 * 6) * (4 % 5) as
    # 3 * 6 * 4 % 5, which Python groups as (3 * 6 * 4) % 5.
    @pytest.mark.parametrize("start, index, outcome", [
        (0, lambda i, j: (i + 3) % 4, [3, 3, 0, 0, 1, 1, 2, 2]),
        (-3, lambda i, j: i % 4, "index -3 out of bounds for arg0 of size 4"),  # C's -3 % 4
        (0, lambda i, j: (i - j) % 4, "index -1 out of bounds for arg0 of size 4"),
        ("arg2", lambda i, j: i % 4, "index -2 out of bounds for arg0 of size 4"),  # arg2 = -2
        (-1.5, lambda i, j: i % 4, "index -1 out of bounds for arg0 of size 4"),  # starts at -1
    ], ids=["wraparound", "from -3", "difference", "from a parameter", "from a float"])
    def test_modulo_wraparound_indexing(self, start, index, outcome):
        from test_interp_differential import _outcome, reference_interpret  # imports this module
        ctx = ctx_named()
        buf, out_buf, n = ctx.parameter("float*"), ctx.parameter("float*"), ctx.parameter("int")

        def body(i):
            def inner(j):
                x = ctx.declare("float", buf[index(i, j)])  # the read comes before the store
                ctx.assign(out_buf[i * 2 + j], x)

            ctx.for_loop(0, 2, 1, inner)

        ctx.for_loop(n if start == "arg2" else start, 4, 1, body)
        program = ctx.finish()
        inputs = {"arg0": [0, 1, 2, 3], "arg1": np.zeros(8), "arg2": -2}
        assert _outcome(interpret_program, program, inputs) == _outcome(
            reference_interpret, program, inputs)
        if isinstance(outcome, str):
            with pytest.raises(InterpError, match=f"^{re.escape(outcome)}$"):
                interpret_program(program, inputs)
        else:
            assert interpret_program(program, inputs)["arg1"].tolist() == outcome

    def test_conv_window_prints_plain_remainder(self, monkeypatch):
        # conv's (i + j) % n: both loop variables count up from 0, so no sign test is printed
        source = compiled_source(monkeypatch, "conv-relu-flag1")
        assert re.search(r"\(\(v\d+ \+ v\d+\) % 24\)", source)
        assert "_mod(" not in source

    @pytest.mark.parametrize("n, m, written", [(7, 4, 3), (-7, 4, -3), (7, -4, 3), (-7, -4, -3)])
    def test_remainder_truncates_toward_zero(self, n, m, written):
        # C's -7 % 4 is -3, where Python's is 1; a left side not provably >= 0 goes through a
        # helper, whatever the divisor
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        a, b = ctx.parameter("int"), ctx.parameter("int")
        ctx.assign(buf[0], a % 4)
        ctx.assign(buf[1], a % b)
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(2), "arg1": n, "arg2": m})
        assert out["arg0"].tolist() == [-3.0 if n < 0 else 3.0, written]

    @pytest.mark.parametrize("case", sorted(C_COMPARISONS))
    def test_comparison_is_an_int(self, case):
        out = interpret_program(_comparison_program(case), {"arg0": np.zeros(4)})
        assert out["arg0"].tolist() == C_COMPARISONS[case][1]

    def test_float_variable_given_an_int_rounds_as_float32(self):
        # 4097.0f * 4097.0f rounds to 16785408, so the difference is 0 in C, not 1
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")
        x = ctx.declare("float", 4097)
        ctx.assign(buf[0], x * x - 16785408)
        ctx.assign(x, n)  # an assigned int is converted too
        ctx.assign(buf[1], x * x - 16785408)
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(2), "arg1": 4097})
        assert out["arg0"].tolist() == [0.0, 0.0]


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

    @pytest.mark.parametrize("holds", ["nothing", "declared int", "assigned int"])
    @pytest.mark.parametrize("access", ["load", "store"])
    def test_pointer_that_holds_no_buffer(self, access, holds):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        if holds == "nothing":  # every declaration has a value, so none is recorded
            with pytest.raises(StagingError, match="^cannot stage a value of type NoneType$"):
                ctx.declare("float*", None)
            return
        pointer = ctx.declare("float*", 3 if holds == "declared int" else out_buf)
        if holds == "assigned int":
            ctx.assign(pointer, 3)
        if access == "load":
            ctx.assign(out_buf[0], pointer[0])
        else:
            ctx.assign(pointer[0], 1.0)
        # C refuses an int in a float*, so the program is not built
        with pytest.raises(ValueError, match=r"^float\* var0 cannot hold a number$"):
            ctx.finish()

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_refusals(self, case):
        # refused when the program, or for a float in an int literal the literal, is built
        with pytest.raises(ValueError, match=f"^{re.escape(HAND_BUILT[case][1])}$"):
            _hand_built_program(case)

    @pytest.mark.parametrize("access", ["load", "store"])
    def test_index_that_is_not_an_integer(self, access):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        i = ctx.declare("float", 0.5)
        if access == "load":
            ctx.assign(buf[0], buf[i])
        else:
            ctx.assign(buf[i], 1.0)
        with pytest.raises(ValueError, match=r"^index var0 into arg0 is a float$"):
            ctx.finish()

    def test_float_variable_given_an_int_is_no_index(self):
        # float var0 = 1 holds 1.0f, which C refuses as an index
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[ctx.declare("float", 1)], 5.0)
        with pytest.raises(ValueError, match=r"^index var0 into arg0 is a float$"):
            ctx.finish()

    def test_float_variable_given_a_comparison_is_no_index(self):
        # float var0 = arg1 < 3 holds 1.0f, not a bool
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")
        ctx.assign(buf[ctx.declare("float", n < 3)], 5.0)
        with pytest.raises(ValueError, match=r"^index var0 into arg0 is a float$"):
            ctx.finish()

    def test_negative_remainder_index(self):
        # the emitted C indexes arg0[n % 4], that is arg0[-3]
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")
        ctx.assign(buf[n % 4], 5.0)
        with pytest.raises(InterpError, match=r"^index -3 out of bounds for arg0 of size 4$"):
            interpret_program(ctx.finish(), {"arg0": np.zeros(4), "arg1": -3})

    @pytest.mark.parametrize("divisor", ["literal", "parameter"])
    def test_remainder_by_zero(self, divisor):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")
        ctx.assign(buf[0], n % (0 if divisor == "literal" else n - 5))
        with pytest.raises(InterpError, match=r"^5 % 0 divides by zero$"):
            interpret_program(ctx.finish(), {"arg0": np.zeros(1), "arg1": 5})

    def test_negative_copy_size(self):
        ctx = ctx_named()
        dst = ctx.parameter("float*")
        src = ctx.parameter("float*")
        ctx.runtime("runtime::memcpy", dst, src, -8)
        with pytest.raises(InterpError, match=r"runtime::memcpy: copying -8 bytes, a negative"):
            interpret_program(ctx.finish(), {"arg0": [0, 0, 0, 0], "arg1": [1, 2, 3, 4]})

    @pytest.mark.parametrize("call, message", [
        ("runtime::memcpy", "runtime::memcpy: copying 18 bytes, not a whole number of elements"),
        ("runtime::malloc", "allocation of 18 bytes at var0"),
    ])
    def test_partial_element_size(self, call, message):
        # stricter than C, which copies or allocates the 2 odd bytes: C's copy of 18 bytes into
        # a 16-byte buffer writes past it, which 4 whole elements would hide
        ctx = ctx_named()
        dst = ctx.parameter("float*")
        src = ctx.parameter("float*")
        if call == "runtime::memcpy":
            ctx.runtime(call, dst, src, 18)
        else:
            ctx.declare("float*", ctx.runtime_expr(call, 18))
        with pytest.raises(InterpError, match=f"^{re.escape(message)}$"):
            interpret_program(ctx.finish(), {"arg0": [0, 0, 0, 0], "arg1": [1, 2, 3, 4, 5]})

    def test_zero_byte_allocation(self):
        # stricter than C, whose malloc(0) may return a pointer that faults only when used
        ctx = ctx_named()
        ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 0))
        with pytest.raises(InterpError, match=r"^allocation of 0 bytes at var0$"):
            interpret_program(ctx.finish(), {})

    @pytest.mark.parametrize("step", [0, -1])
    def test_loop_that_never_advances(self, step):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        with pytest.raises(ValueError, match="^loop step must be an int literal of at least 1"):
            ctx.for_loop(0, 4, step, lambda i: ctx.assign(buf[0], buf[0] + 1.0))

    def test_loop_that_never_advances_and_never_starts(self):
        ctx = ctx_named()
        with pytest.raises(ValueError, match=r"^loop step must be .*, got IntLit\(value=0\)$"):
            ctx.for_loop(5, 4, 0, lambda i: None)

    @pytest.mark.parametrize("field", ["bound", "step"])
    @pytest.mark.parametrize("value", ["staged", 4.0])
    def test_loop_bound_and_step_must_be_int_literals(self, value, field):
        # a staged bound or step may change while the loop runs, a float one runs
        # differently in C; an int literal holding a float or a bool is refused itself
        ctx = ctx_named()
        header = {"bound": 4, "step": 1, field: ctx.parameter("int") if value == "staged" else value}
        with pytest.raises(ValueError, match=f"^loop {field} must be an int literal"):
            ctx.for_loop(0, header["bound"], header["step"], lambda i: None)
        for literal, shown in ((4.0, "4.0"), (True, "True"), ("7", "'7'")):
            with pytest.raises(ValueError, match=f"^integer literal is not an int: {shown}$"):
                IntLit(literal)

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                              (-np.inf, "-inf"), ("buffer", "a buffer")])
    def test_int_cannot_hold_a_buffer_nan_or_inf(self, value, shown):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        x = ctx.parameter("float")
        ctx.for_loop(buf if value == "buffer" else x, 2, 1, lambda i: None)
        if value == "buffer":  # C's types refuse it, so the program is not built
            with pytest.raises(ValueError, match=f"^int var0 cannot hold {shown}$"):
                ctx.finish()
            return
        with pytest.raises(InterpError, match=f"^int var0 cannot hold {shown}$"):
            interpret_program(ctx.finish(), {"arg0": [0.0], "arg1": value})

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_what_c_types_refuse_is_refused_before_anything_runs(self, case):
        # the recorder takes every statement; building the program refuses it
        statement, message = REFUSED[case]
        ctx = _refused_recording(statement)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ctx.finish()

    @pytest.mark.parametrize("inputs", [{"arg0": [0.0], "arg1": 0.0}, {"arg0": 1.0, "arg1": 0}, {}])
    def test_what_c_types_refuse_is_refused_before_any_input_is_read(self, inputs):
        # refused when the program is built, so no interpreter is given the inputs
        with pytest.raises(ValueError, match=r"^float\* var0 cannot hold a number$"):
            interpret_program(_refused_recording(REFUSED["int parameter in a pointer"][0]).finish(),
                              inputs)

    def test_long_sum_and_too_deep_loop_nest(self):
        # a left-nested sum prints without parentheses; Python compiles at most 20 nested loops
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        total = buf[0]
        for _ in range(500):
            total = total + 1.0
        ctx.assign(buf[0], total)
        assert interpret_program(ctx.finish(), {"arg0": [0.0]})["arg0"][0] == 500.0

        def nest(bound):
            ctx = ctx_named()
            buf = ctx.parameter("float*")

            def level(depth):
                innermost = lambda i: ctx.assign(buf[0], 1.0)
                ctx.for_loop(0, bound, 1, (lambda i: level(depth - 1)) if depth > 1 else innermost)

            level(21)
            return ctx.finish()

        with pytest.raises(InterpError, match="nested too deeply: too many statically nested"):
            interpret_program(nest(2), {"arg0": [0.0]})
        # a loop that runs once prints as a binding, so 21 of them nest no block
        assert interpret_program(nest(1), {"arg0": [0.0]})["arg0"][0] == 1.0

    def test_loop_over_all_of_cs_int_ends_at_the_budget(self):
        # 2**32 iterations, which the interpreter would take hours over
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.for_loop(-2**31, 2**31 - 1, 1, lambda i: ctx.assign(buf[0], 1.0))
        program = ctx.finish()

        def alarm(signum, frame):
            raise TimeoutError("the loop still ran after 5 s")

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.alarm(5)
        try:
            with pytest.raises(InterpError, match=r"^loop over var0 runs past the budget of"
                                                  r" 16777216 iterations$"):
                interpret_program(program, {"arg0": [0.0]})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("start, outcome", [
        (0, ("ok", 10.0)),  # exactly the budget
        (-1, ("error", "loop over var0 runs past the budget of 10 iterations")),
    ])
    def test_loop_of_exactly_the_budget_finishes(self, monkeypatch, start, outcome):
        monkeypatch.setattr(interp, "MAX_LOOP_ITERATIONS", 10)
        for literal in (True, False):  # a literal start bounds the loop, so it prints no charge
            ctx = ctx_named()
            buf, n = ctx.parameter("float*"), ctx.parameter("int")
            ctx.for_loop(start if literal else n, 10, 1,
                         lambda i: ctx.assign(buf[0], buf[0] + 1.0))
            source, got = _source_and_outcome(monkeypatch, ctx.finish(),
                                              {"arg0": [0.0], "arg1": start})
            assert ("_b -= len(" in source) == (not literal or start < 0)
            if outcome[0] == "ok":
                assert got[0] == "ok" and got[1][0][2] == np.float32([outcome[1]]).tobytes()
            else:
                assert got == ("error", "InterpError", outcome[1])

    def test_missing_input(self):
        prog = SecondStageProgram("p", (("data", "float*"),), [])
        with pytest.raises(InterpError, match="missing input"):
            interpret_program(prog, {})

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("int", 2.7, "parameter 'p' needs an integer, got 2.7"),
            ("int", "3", "parameter 'p' needs an integer, got '3'"),
            ("int", np.float32(2.5), r"parameter 'p' needs an integer, got (np\.float32\()?2\.5\)?"),
            ("float*", None, "parameter 'p' needs an array, got NoneType"),
            ("float*", 1.5, "parameter 'p' needs an array, got float"),
            ("float*", np.float32(1.5), "parameter 'p' needs an array, got float32"),
            ("float", "3.5", "parameter 'p' needs a number, got '3.5'"),
            ("float", None, "parameter 'p' needs a number, got None"),
            ("float", [1.0], r"parameter 'p' needs a number, got \[1\.0\]"),
        ],
    )
    def test_input_of_the_wrong_kind(self, kind, value, message):
        prog = SecondStageProgram("p", (("p", kind),), [])
        with pytest.raises(InterpError, match=f"^{message}$"):
            interpret_program(prog, {"p": value})

    def test_numbers_of_any_numeric_type(self):
        prog = SecondStageProgram("p", (("n", "int"), ("x", "float")), [])
        out = interpret_program(prog, {"n": np.int64(3), "x": 2})
        assert out == {"n": 3, "x": 2.0}
        assert type(out["n"]) is int and type(out["x"]) is np.float32

    @pytest.mark.parametrize(
        "expr, message",
        [
            (partial(Binary, "==", IntLit(1), IntLit(1)), "unknown binary operator '=='"),
            # C divides these, but neither the recorder nor the interpreter has a division
            (partial(Binary, "/", FloatLit(1.0), FloatLit(2.0)), "unknown binary operator '/'"),
        ],
    )
    def test_operator_no_recording_produces(self, expr, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expr()

    def test_assignment_target_is_a_variable_or_element(self):
        # 1 = 1.0; is no C; the node refuses it, whether recorded or built by hand
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        message = "^assignment target must be a variable or array element$"
        for target in (1, buf + 1, buf[0] < 1.0):
            with pytest.raises(ValueError, match=message):
                ctx.assign(target, 1.0)
        with pytest.raises(ValueError, match=message):
            Assign(IntLit(1), FloatLit(1.0))


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

    @pytest.mark.parametrize("case, cells", [
        ("matmul-prophecy-4x4x4", 4 * 4),  # the default 40 x 512 grid, shortened to the data
        ("matmul-prophecy-5x3x6-grid2x3", 2 * 3),  # grids smaller than the data, kept whole
        ("matvec-prophecy-7x5-grid3x2", 3 * 2),
    ])
    def test_idle_grid_cells_are_skipped(self, monkeypatch, case, cells):
        # count the entries into the thread loop's body in the source the interpreter compiles:
        # its first line run straight after its header (that line may be a loop header itself,
        # which runs once per iteration and once more at exhaustion)
        runs, last = Counter(), [0]

        def line(frame, event, arg):
            if event == "line":
                runs[last[0], frame.f_lineno] += 1
                last[0] = frame.f_lineno
            return line

        program, _ = INTERPRETED[case][0]()
        thread = next(stmt.var for stmt in iter_stmts(program.body) if isinstance(stmt, ForLoop)
                      and any(isinstance(s, RuntimeCall) for s in stmt.body))
        slot = f"v{int(thread[3:]) + len(program.params)}"
        previous = sys.gettrace()
        sys.settrace(lambda frame, *_: line if frame.f_code.co_name == "_program" else None)
        try:
            source = compiled_source(monkeypatch, case)
        finally:
            sys.settrace(previous)
        header = next(i for i, text in enumerate(source.splitlines(), 1)
                      if f"for {slot} in range(" in text)
        assert runs[header, header + 1] == cells

    def test_loop_that_runs_once_prints_as_a_binding(self, monkeypatch):
        # v takes 0 and 1: the loop from v to 2 by 5 runs once for each, and the loop from v to 1
        # once for v = 0 but never for v = 1, so it stays a loop
        ctx = ctx_named()
        buf, out = ctx.parameter("float*"), ctx.parameter("float*")

        def body(v):
            ctx.assign(out[v], 1.0)  # so the range over v is not shortened
            ctx.for_loop(v, 1, 5, lambda i: ctx.assign(buf[0], buf[0] + 1.0))
            ctx.for_loop(v, 2, 5, lambda i: ctx.assign(buf[1], buf[1] + 1.0))

        ctx.for_loop(0, 2, 1, body)
        source, outcome = _source_and_outcome(monkeypatch, ctx.finish(),
                                              {"arg0": [0.0, 0.0], "arg1": [0.0, 0.0]})
        assert outcome[1][0] == ("arg0", "float32", np.float32([1, 2]).tobytes())
        assert "for v3 in range(v2, 1, 5):" in source and "\n        v4 = v2\n" in source
        # the matmul kernel on the default grid: one cell per thread, shortened to the data
        kernel = compiled_source(monkeypatch, "matmul-prophecy-4x4x4")
        assert "v15 = v13\n            v16 = v14\n" in kernel and "for v15" not in kernel

    def test_offset_from_a_parameter_the_loop_assigns(self):
        # each v lowers n by 10 before int d = n + v, so the loop from d still runs for
        # v = 2 and v = 3 (d = -8, -7), though 2 - n, taken before the loop, is 2
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")

        def body(v):
            ctx.for_loop(v, 1, 1, lambda i: ctx.assign(n, n - 10))
            d = ctx.declare("int", n + v)
            ctx.for_loop(d, 2, 1, lambda j: ctx.assign(buf[0], buf[0] + 1.0))

        ctx.for_loop(0, 4, 1, body)
        out = interpret_program(ctx.finish(), {"arg0": np.zeros(1), "arg1": 0})
        assert out["arg0"].tolist() == [12.0 + 11.0 + 10.0 + 9.0]

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


def _source_and_outcome(monkeypatch, program, inputs):
    """The source ``interpret_program`` prints for ``program``, and its outcome on ``inputs``,
    which must be the reference interpreter's."""
    from test_interp_differential import _outcome, reference_interpret  # it imports this module
    sources = []
    monkeypatch.setattr(interp, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    outcome = _outcome(interpret_program, program, inputs)
    assert outcome == _outcome(reference_interpret, program, inputs)
    return sources[0], outcome


def _read_in_loops(ctx, buf, out, n, case):
    store = lambda index: ctx.assign(out[0], buf[index])  # out[0] is proven in every case
    if case == "range(0, N)":
        ctx.for_loop(0, 4, 1, store)
    elif case == "range(0, N + 1)":
        ctx.for_loop(0, 5, 1, store)
    elif case == "start at an enclosing loop variable":  # a kernel's range(v13, 4, 40)
        ctx.for_loop(0, 2, 1, lambda b: ctx.for_loop(b, 4, 40, store))
    elif case == "start at an int parameter":
        ctx.for_loop(n, 4, 1, store)
    elif case == "declared int":
        store(ctx.declare("int", 3))
    elif case == "declared int assigned after":
        d = ctx.declare("int", 3)
        ctx.assign(d, 4)
        store(d)
    elif case == "intermediate product leaving C's int":  # v * 65536 * 65536 does for v = 1
        ctx.for_loop(0, 2, 1, lambda v: ctx.for_loop(v, 2, 1,
                                                     lambda i: store(v * 65536 * 65536 % 4)))
    else:  # the range stops where v = 1 would do nothing, and so before the product leaves C's int
        ctx.for_loop(0, 2, 1, lambda v: ctx.for_loop(v, 1, 1, lambda i: store(v * 65536 * 65536 % 4)))


# Reads of arg0 (4 elements) in loops, each with whether its index is proven in bounds and the
# start of the outcome both interpreters give.
BOUNDARY_READS = {
    "range(0, N)": (True, ("ok",)),
    "range(0, N + 1)": (False, ("error", "InterpError", "index 4 out of bounds for arg0 of size 4")),
    "start at an enclosing loop variable": (True, ("ok",)),
    "start at an int parameter": (False, ("ok",)),
    "declared int": (True, ("ok",)),
    "declared int assigned after": (False, ("error", "InterpError",
                                            "index 4 out of bounds for arg0 of size 4")),
    "intermediate product leaving C's int": (False, ("ok",)),
    "intermediate product past a literal stop": (True, ("ok",)),
}


def _allocated(ctx):
    return ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))  # 4 elements


def _store_each(ctx, buf, src, bound=4):
    ctx.for_loop(0, bound, 1, lambda i: ctx.assign(buf[i], src[i]))


def _nest(ctx, src, flag, bound=4):
    _store_each(ctx, buf := _allocated(ctx), src, bound)
    return buf


def _row_major_nest(ctx, src, flag):
    buf = _allocated(ctx)
    ctx.for_loop(0, 2, 1, lambda i: ctx.for_loop(0, 2, 1, lambda j: ctx.assign(
        buf[i * 2 + j], src[i * 2 + j])))
    return buf


def _copied_from_filled(ctx, src, flag, nbytes=16):
    buf = _nest(ctx, src, flag)
    ctx.runtime("runtime::memcpy", copy := _allocated(ctx), buf, nbytes)
    return copy


def _under_if(ctx, src, flag):
    buf = _allocated(ctx)
    ctx.if_else(flag, lambda: _store_each(ctx, buf, src))
    return buf


def _store_under_if(ctx, src, flag):
    buf = _allocated(ctx)
    ctx.for_loop(0, 4, 1, lambda i: ctx.if_else(i < 3, lambda: ctx.assign(buf[i], src[i])))
    return buf


def _strided(ctx, src, flag):  # stores every element, two an iteration
    buf = _allocated(ctx)
    ctx.for_loop(0, 4, 2, lambda i: [ctx.assign(buf[i + k], src[i + k]) for k in (0, 1)])
    return buf


def _trimmed(ctx, src, flag):  # the grid-stride shape: stops at 4, and stores every element
    buf = _allocated(ctx)
    ctx.for_loop(0, 8, 1, lambda b: ctx.for_loop(b, 4, 8, lambda i: ctx.assign(buf[i], src[i])))
    return buf


def _refilled_from_part(ctx, src, flag):  # its first two elements from a buffer that holds one
    buf, part = _nest(ctx, src, flag), _allocated(ctx)
    ctx.assign(part[1], 5.0)
    ctx.runtime("runtime::memcpy", buf, part, 8)
    return buf


def _copied_from_a_reassigned_parameter(ctx, src, flag):
    buf = _allocated(ctx)
    ctx.assign(src, ctx.runtime_expr("runtime::malloc", 16))  # no longer the caller's buffer
    ctx.runtime("runtime::memcpy", buf, src, 16)
    return buf


def _emptied_through_an_alias(ctx, src, flag):
    buf = _nest(ctx, src, flag)
    ctx.runtime("runtime::memcpy", ctx.declare("float*", buf), _allocated(ctx), 8)
    return buf


# Buffers written in top-level statements, each recording giving the buffer it writes (from
# arg0, into a new one but where it says otherwise), then read at an index: the index, whether the
# read is bare (no None test) and the outcome both interpreters give.
FILLS = {
    "nest": (_nest, 3, True, "ok"),
    "row-major nest": (_row_major_nest, 3, True, "ok"),
    "copy from a filled buffer": (_copied_from_filled, 3, True, "ok"),
    "copy of half from a filled buffer": (partial(_copied_from_filled, nbytes=8), 3, False,
                                          "uninitialized read at var2[3]"),
    "nest one element short": (partial(_nest, bound=3), 3, False, "uninitialized read at var0[3]"),
    "fill under if": (_under_if, 0, False, "uninitialized read at var0[0]"),
    "store under if in the nest": (_store_under_if, 3, False, "uninitialized read at var0[3]"),
    "strided nest": (_strided, 3, False, "ok"),
    "trimmed nest": (_trimmed, 3, False, "ok"),
    "copy from a partly written buffer": (_refilled_from_part, 0, False,
                                          "uninitialized read at var0[0]"),
    "alias": (_emptied_through_an_alias, 0, False, "uninitialized read at var0[0]"),
    "copy from a reassigned parameter": (_copied_from_a_reassigned_parameter, 0, False,
                                         "uninitialized read at var0[0]"),
}


class TestInlineAccess:
    """Every load and store is inline, through a ``float*`` variable that holds a buffer."""

    @pytest.mark.parametrize("case", sorted(BOUNDARY_READS))
    def test_bounds_proven_only_inside_the_buffer(self, monkeypatch, case):
        ctx = ctx_named()
        buf, out, n = ctx.parameter("float*"), ctx.parameter("float*"), ctx.parameter("int")
        _read_in_loops(ctx, buf, out, n, case)
        inputs = {"arg0": [1.0, 2.0, 3.0, 4.0], "arg1": [0.0], "arg2": 0}
        source, outcome = _source_and_outcome(monkeypatch, ctx.finish(), inputs)
        proven, expected = BOUNDARY_READS[case]
        assert outcome[:len(expected)] == expected
        assert "< len(V1)" not in source and "_at(v1" not in source
        # a proven read of a parameter that holds no None is bare: no bounds or None test
        assert ("< len(V0)" in source, "_at(v0" in source) == (not proven, not proven)

    def test_conv_reads_its_inputs_bare(self, monkeypatch):
        build, make_inputs = INTERPRETED["conv-relu-flag0"]
        source, outcome = _source_and_outcome(monkeypatch, build()[0],
                                              make_inputs(np.random.default_rng(0)))
        assert outcome[0] == "ok"
        assert len(re.findall(r"V0\[\(\(v\d+ \+ v\d+\) % 24\)\]", source)) == 2
        assert "_at(v0" not in source and "_at(v1" not in source

    @pytest.mark.parametrize("case", sorted(FILLS))
    def test_read_of_a_filled_buffer_is_bare(self, monkeypatch, case):
        ctx = ctx_named()
        src, out, flag = ctx.parameter("float*"), ctx.parameter("float*"), ctx.parameter("int")
        record, index, bare, outcome = FILLS[case]
        ctx.assign(out[0], record(ctx, src, flag)[index])
        inputs = {"arg0": [1.0, 2.0, 3.0, 4.0], "arg1": [0.0], "arg2": 0}
        source, got = _source_and_outcome(monkeypatch, ctx.finish(), inputs)
        assert got[0] == "ok" if outcome == "ok" else got == ("error", "InterpError", outcome)
        read = source.splitlines()[-2]  # the last statement, out[0] = buf[index], proven in bounds
        assert read.startswith("    V1[0] = ") and "< len(V" not in read
        assert ("_at(" not in read) == bare

    @pytest.mark.parametrize("case, reads", [
        ("matmul-prophecy-4x4x4", ["V4[v15 * 4 + v18]", "V6[v18 * 4 + v16]"]),  # the kernel's
        ("conv-relu-flag0", ["if V5[v9] < _c1:", "if V5[v10] < _c3:"]),  # the ReLU tests
        # copy_all's inputs, copied into after they are read, from buffers they filled
        ("matmul-copy_all-5x3x6-grid2x3", ["= V0[v12 * 3 + v13]", "= V1[v14 * 6 + v15]"]),
    ])
    def test_pinned_builds_read_filled_buffers_bare(self, monkeypatch, case, reads):
        build, make_inputs = INTERPRETED[case]
        source, outcome = _source_and_outcome(monkeypatch, build()[0],
                                              make_inputs(np.random.default_rng(0)))
        assert outcome[0] == "ok"
        for read in reads:
            slot = re.search(r"V(\d+)\[", read)[1]
            assert read in source and f"_at(v{slot}," not in source

    @pytest.mark.parametrize("alias", ["declared", "assigned"])
    def test_parameter_copied_into_through_an_alias_keeps_its_none_test(self, monkeypatch, alias):
        # no copy names arg0, but one through p leaves its first two elements unwritten
        ctx = ctx_named()
        buf, out = ctx.parameter("float*"), ctx.parameter("float*")
        scratch = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 8))
        if alias == "declared":
            p = ctx.declare("float*", buf)
        else:
            p = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))
            ctx.assign(p, buf)
        ctx.runtime("runtime::memcpy", p, scratch, 8)
        ctx.for_loop(0, 4, 1, lambda i: ctx.assign(out[i], buf[0]))
        inputs = {"arg0": np.ones(4), "arg1": np.zeros(4)}
        source, outcome = _source_and_outcome(monkeypatch, ctx.finish(), inputs)
        assert outcome == ("error", "InterpError", "uninitialized read at arg0[0]")
        assert "V1[v" in source and "< len(V" not in source  # every access proven in bounds
        assert "(_v if (_v := V0[0]) is not None else _at(v0, 0))" in source

    @pytest.mark.parametrize("case", sorted(INTERPRETED))
    def test_pinned_builds_take_only_the_inline_path(self, monkeypatch, case):
        calls = []
        for name in ("_at", "_in_bounds"):
            checked = getattr(interp, name)
            spy = lambda *args, name=name, checked=checked: calls.append(name) or checked(*args)
            monkeypatch.setattr(interp, name, spy)
        build, make_inputs = INTERPRETED[case]
        interpret_program(build()[0], make_inputs(np.random.default_rng(0)))
        assert calls == []

    # Out of scope after its block in C, so refused when the program is built.
    @pytest.mark.parametrize("access", ["load", "store"])
    @pytest.mark.parametrize("block", ["untaken branch", "zero-trip loop"])
    def test_allocation_in_a_block_that_never_runs(self, block, access):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        held = []
        allocate = lambda *_: held.append(
            ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16)))
        if block == "untaken branch":
            ctx.if_else(out_buf[0] > 1.0, allocate)
        else:
            ctx.for_loop(0, 0, 1, allocate)
        if access == "load":
            ctx.assign(out_buf[0], held[0][1])
        else:
            ctx.assign(held[0][1], 1.0)
        allocated = "var1" if block == "zero-trip loop" else "var0"  # the loop variable is var0
        with pytest.raises(ValueError, match=f"^variable {allocated} is used outside its block$"):
            ctx.finish()

    def test_allocation_in_a_block_that_runs(self):
        ctx = ctx_named()
        out_buf = ctx.parameter("float*")
        held = []
        ctx.if_else(out_buf[0] < 1.0, lambda: held.append(
            ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 16))))
        ctx.assign(held[0][1], 4.0)
        ctx.assign(out_buf[0], held[0][1])
        with pytest.raises(ValueError, match="^variable var0 is used outside its block$"):
            ctx.finish()

    @pytest.mark.parametrize("pointer", ["allocated", "parameter"])
    def test_reassigned_pointer_keeps_its_guard(self, pointer):
        def recording(int_in_branch):
            ctx = ctx_named()
            out_buf = ctx.parameter("float*")
            other = ctx.parameter("float*")
            flag = ctx.parameter("int")
            if pointer == "parameter":
                p = other
            else:
                p = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 8))
            ctx.assign(p[0], 1.0)
            ctx.assign(p, out_buf)  # an alias: p[...] now reaches out_buf
            ctx.assign(p[1], p[0] + 1.0)
            if int_in_branch:
                ctx.if_else(flag, lambda: ctx.assign(p, 3))
            ctx.assign(out_buf[2], p[0])
            return ctx

        inputs = {"arg0": [10.0, 20.0, 30.0], "arg1": [0.0, 0.0], "arg2": 0}
        out = interpret_program(recording(False).finish(), inputs)
        np.testing.assert_array_equal(out["arg0"], np.float32([10, 11, 10]))
        # a pointer parameter's output is the caller's buffer, whatever it points to at the end
        other_out = [1, 0] if pointer == "parameter" else [0, 0]
        np.testing.assert_array_equal(out["arg1"], np.float32(other_out))
        # C refuses an int in a float*, even in a branch never taken
        held = "arg1" if pointer == "parameter" else "var0"
        ctx = recording(True)
        with pytest.raises(ValueError, match=f"^float\\* {held} cannot hold a number$"):
            ctx.finish()

    def test_parameter_overwritten_by_unwritten_elements(self):
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        flag = ctx.parameter("int")
        scratch = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 8))
        ctx.assign(scratch[1], 5.0)
        ctx.runtime("runtime::memcpy", buf, scratch, 8)
        ctx.if_else(flag, lambda: ctx.assign(buf[2], buf[0]))
        program = ctx.finish()
        out = interpret_program(program, {"arg0": [1.0, 2.0, 3.0], "arg1": 0})
        assert out["arg0"].dtype == np.float32
        np.testing.assert_array_equal(out["arg0"], np.float32([0, 5, 3]))
        with pytest.raises(InterpError, match=r"^uninitialized read at arg0\[0\]$"):
            interpret_program(program, {"arg0": [1.0, 2.0, 3.0], "arg1": 1})

    @pytest.mark.parametrize("value", [lambda buf: 1, lambda buf: buf[1] < 1.0])
    def test_stored_int_or_bool_becomes_a_float32(self, value):
        # as in a float32 array, so the element read back is a float, which C refuses as an index
        ctx = ctx_named()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], value(buf))
        ctx.assign(buf[1], buf[buf[0]])
        with pytest.raises(ValueError, match=r"^index arg0\[0\] into arg0 is a float$"):
            ctx.finish()
