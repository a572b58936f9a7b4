"""Differential test: ``interpret_program`` against the interpreter it replaced.

``reference_interpret`` is the closure-per-node interpreter that
``interpret_program`` replaced: each AST node is compiled once into a
closure over an environment list.  It is kept here as it was, with its own
``Buffer``, less the branches of the second-stage features since removed
(``Return``, ``Unary`` and ``runtime::free``), of what a recorded node can
no longer be (a runtime call of the wrong kind, a parameter kind other than
``int``, ``float`` or ``float*``, a declaration without a value, an
assignment to anything but a variable or an element, an unknown operator),
and of what a program can no longer hold: C's types are checked when a
program is built (see ``prophecy.second_stage``), so the reference refuses
nothing at compile time, and g++ is the oracle for what is refused (see
``tests/test_emitted_c.py``).  It has additions made to both.  A loop
start, an ``int`` declaration's value and a value assigned to an ``int``
variable or parameter become what C stores in an ``int`` (``_to_int``):
truncated toward zero, with nan or inf an InterpError.  A comparison is C's
int, 0 or 1 (``_BINOPS``), and an int given to a ``float`` variable or
parameter becomes a float32 (``_as_stored``).  ``%`` is C's, whose quotient
truncates toward zero (``_c_mod``), with a zero divisor an InterpError.  A
copy or allocation of a byte count that is not a whole number of elements is
an InterpError (C's copy of 18 bytes into a 16-byte buffer writes past it).  An
access evaluates its index before it reads its base, as the generated
source does.  Its loop builds the ``var < bound`` test and the ``var = var +
step`` update from the ``ForLoop`` fields and runs them as a ``while``
loop, after it charges the loop's length (its ``range``) to a budget of
``interp.MAX_LOOP_ITERATIONS`` iterations, kept after the variables, going
over which is an InterpError.  It is the reference the generated-source interpreter must agree
with.  Random programs are recorded through the public ``StageContext``
API, so they have the recorder's shapes, and cover nested counted loops
with literal, staged, float and float-parameter starts (some of them
empty), grid-shaped nests like the einsum DSL's kernels (whose idle
iterations the interpreter skips, some with their flat thread id offset by
an int parameter the nest lowers), ``if_else``, ``int`` variables given
float values and ``float`` ones given ints or comparisons, indices that sum
two comparisons, remainders by positive, negative, zero and staged
divisors, loads and stores in and out of bounds, reads of uninitialized
elements, whole, short and over-long copies, aliases, and now and then, on
purpose, what C refuses, so building the program does: a read of a
variable after its block (a kernel's flat thread id after the nest, say),
an ``int`` given a pointer, a ``float*`` given an int, an int indexed, a
float index and an int copied.  ``random_program`` returns the error of
such a draw in place of the program, and the differential tests compare
the programs that build.  A second test draws programs of kernel nests
only, and a third programs whose top-level statements mostly write a
buffer whole, as the interpreter's fill rule sees it, or fall just short
of that (``_Gen.fill``), each then read at a literal index.  A fourth
checks that few programs are refused and no fewer end ``ok`` than before
the generator scoped its variables.  A fifth compares seeds 0-299 of all
three kinds on every run, so that an access printed without its bounds
test, or a read without its ``None`` test, that can fail is caught
without hypothesis's luck, and checks that many printed sources hold
such an access and such a read.  A sixth compares seeds 0-99 under loop
budgets small enough that many programs go over them.  The pinned builds
with a small grid (matmul and matvec in all three strategies, conv/ReLU
24 x 5 with both flags) are compared too, as are the programs that take a
comparison as an int (``C_COMPARISONS`` in ``tests/test_interp.py``); the
programs C's types refuse (``REFUSED`` there) and the hand-built
statements (``HAND_BUILT`` there) are checked to be refused when built, so
that neither interpreter is given them.  Outputs are
compared byte for byte, scalars by type and value, and errors by type and
message.  As in C, a pointer parameter's output is the caller's buffer,
whatever the parameter points to at the end.

The reference accepts a negative copy size, which the new interpreter
diagnoses (see ``tests/test_interp.py``), so the generator makes none.
"""

import math
import operator
import random
import re
from typing import Any, Callable, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophecy import interp
from prophecy.interp import InterpError, interpret_program
from prophecy.second_stage import (
    _ELEM_BYTES,
    ArrayIndex,
    Assign,
    Binary,
    Declare,
    Expr,
    FloatLit,
    ForLoop,
    IfElse,
    IntLit,
    RuntimeCall,
    RuntimeCallExpr,
    SecondStageProgram,
    Stmt,
    VarRef,
    iter_stmts,
)
from prophecy.staging import ProphecyStore, StageContext
from test_interp import (C_COMPARISONS, HAND_BUILT, REFUSED, _comparison_program,
                         _hand_built_program, _refused_recording)
from test_pins import INTERPRETED


class Buffer:
    __slots__ = ("values", "mask", "name")

    def __init__(self, values: np.ndarray, mask: bytearray, name: str):
        self.values = values
        self.mask = mask
        self.name = name

    @property
    def size(self) -> int:
        return len(self.values)


def _c_mod(a: int, b: int) -> int:
    """C's ``a % b``: the quotient truncates toward zero, so the remainder has ``a``'s sign."""
    if b == 0:
        raise InterpError(f"{a} % {b} divides by zero")
    q = abs(a) // abs(b)
    return a - b * (q if (a < 0) == (b < 0) else -q)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": _c_mod,
    # a comparison is C's int, 0 or 1
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


def _var_kinds(program: SecondStageProgram) -> dict[str, str]:
    """Every variable's kind, parameters first, then declarations in program order."""
    kinds = dict(program.params)
    for stmt in iter_stmts(program.body):
        if isinstance(stmt, ForLoop):
            kinds[stmt.var] = "int"
        elif isinstance(stmt, Declare):
            kinds[stmt.name] = stmt.kind
    return kinds


def _to_int(value: Any, name: str) -> int:
    """What C stores in int variable ``name``: ``value`` truncated toward zero."""
    if not math.isfinite(value):
        raise InterpError(f"int {name} cannot hold {value}")
    return math.trunc(value.item() if isinstance(value, np.generic) else value)


def _as_stored(value: Any, name: str) -> Any:
    """What C stores in float variable ``name``: an int (a comparison, say) becomes a float."""
    return np.float32(value) if isinstance(value, int) else value


def _kept(value: Any, name: str) -> Any:
    return value


_CONVERT = {"int": _to_int, "float": _as_stored}


def _alloc(args: tuple[Any, ...], name: str) -> Buffer:
    (nbytes,) = args
    count, part = divmod(int(nbytes), _ELEM_BYTES)
    if count <= 0 or part:
        raise InterpError(f"allocation of {nbytes} bytes at {name}")
    return Buffer(np.zeros(count, dtype=np.float32), bytearray(count), name)


def _compile_expr(
    expr: Expr, slots: dict[str, int], alloc_name: str | None = None
) -> Callable[[list], Any]:
    match expr:
        case IntLit(value):
            return lambda env: value
        case FloatLit(value):
            const = np.float32(value)
            return lambda env: const
        case VarRef(name):
            slot = slots[name]
            return lambda env: env[slot]
        case Binary(op, left, right):
            fn = _BINOPS[op]
            lf = _compile_expr(left, slots)
            rf = _compile_expr(right, slots)
            return lambda env: fn(lf(env), rf(env))
        case ArrayIndex(base, index):
            bf, xf = _compile_expr(base, slots), _compile_expr(index, slots)

            def load(env):
                i = xf(env)
                buf = bf(env)
                if i < 0 or i >= buf.size:
                    raise InterpError(
                        f"index {i} out of bounds for {buf.name} of size {buf.size}"
                    )
                if not buf.mask[i]:
                    raise InterpError(f"uninitialized read at {buf.name}[{i}]")
                return buf.values[i]

            return load
        case RuntimeCallExpr(name, args):  # an allocation
            arg_fns = [_compile_expr(a, slots) for a in args]
            label = alloc_name or name

            def allocate(env, label=label):
                return _alloc(tuple(f(env) for f in arg_fns), label)

            return allocate
    raise TypeError(f"not an expression: {expr!r}")


def _compile_stmt(stmt: Stmt, slots: dict[str, int], kinds: dict[str, str]) -> Callable[[list], None]:
    match stmt:
        case Declare(name, kind, init):
            init_fn = _compile_expr(init, slots, alloc_name=name)
            slot = slots[name]
            convert = _CONVERT.get(kind, _kept)

            def declare_init(env):
                env[slot] = convert(init_fn(env), name)

            return declare_init
        case Assign(VarRef(name), value):
            vf = _compile_expr(value, slots)
            slot = slots[name]
            convert = _CONVERT.get(kinds[name], _kept)

            def store_var(env):
                env[slot] = convert(vf(env), name)

            return store_var
        case Assign(ArrayIndex(base, index), value):
            vf = _compile_expr(value, slots)
            bf, xf = _compile_expr(base, slots), _compile_expr(index, slots)

            def store_elem(env):
                i = xf(env)
                buf = bf(env)
                if i < 0 or i >= buf.size:
                    raise InterpError(
                        f"index {i} out of bounds for {buf.name} of size {buf.size}"
                    )
                buf.values[i] = vf(env)
                buf.mask[i] = 1

            return store_elem
        case ForLoop(var, init, bound, by, body):
            cond, step = Binary("<", VarRef(var), bound), Binary("+", VarRef(var), by)
            init_fn = _compile_expr(init, slots)
            slot = slots[var]
            cond_fn = _compile_expr(cond, slots)
            step_fn = _compile_expr(step, slots)
            body_fns = [_compile_stmt(s, slots, kinds) for s in body]

            def loop(env):
                env[slot] = _to_int(init_fn(env), var)
                env[-1] -= len(range(env[slot], bound.value, by.value))  # the loop budget
                if env[-1] < 0:
                    raise InterpError(f"loop over {var} runs past the budget of"
                                      f" {interp.MAX_LOOP_ITERATIONS} iterations")
                while cond_fn(env):
                    for fn in body_fns:
                        fn(env)
                    env[slot] = step_fn(env)

            return loop
        case IfElse(cond, then_body, else_body):
            cond_fn = _compile_expr(cond, slots)
            then_fns = [_compile_stmt(s, slots, kinds) for s in then_body]
            else_fns = [_compile_stmt(s, slots, kinds) for s in else_body or []]

            def branch(env):
                for fn in then_fns if cond_fn(env) else else_fns:
                    fn(env)

            return branch
        case RuntimeCall("runtime::grid_sync"):
            return lambda env: None
        case RuntimeCall(name, args):  # a copy
            arg_fns = [_compile_expr(a, slots) for a in args]

            def copy(env):
                dst = arg_fns[0](env)
                src = arg_fns[1](env)
                nbytes = arg_fns[2](env)
                count, part = divmod(int(nbytes), _ELEM_BYTES)
                if part:
                    raise InterpError(
                        f"{name}: copying {nbytes} bytes, not a whole number of elements")
                if count > dst.size or count > src.size:
                    raise InterpError(
                        f"{name}: copying {count} elements between {src.name}"
                        f" ({src.size}) and {dst.name} ({dst.size})"
                    )
                dst.values[:count] = src.values[:count]
                dst.mask[:count] = src.mask[:count]

            return copy
    raise TypeError(f"not a statement: {stmt!r}")


def reference_interpret(
    program: SecondStageProgram, inputs: Mapping[str, Any]
) -> dict[str, Any]:
    kinds = _var_kinds(program)
    slots = {name: k for k, name in enumerate(kinds)}
    body = [_compile_stmt(s, slots, kinds) for s in program.body]
    env: list[Any] = [None] * len(slots) + [interp.MAX_LOOP_ITERATIONS]  # and what is left of it
    callers: dict[str, Buffer] = {}  # what C's caller keeps, whatever the parameter points to
    for name, kind in program.params:
        if name not in inputs:
            raise InterpError(f"missing input for parameter {name!r}")
        if kind == "float*":
            values = np.asarray(inputs[name], dtype=np.float32).ravel().copy()
            buffer = Buffer(values, bytearray(b"\x01" * len(values)), name)
            env[slots[name]] = callers[name] = buffer
        elif kind == "int":
            env[slots[name]] = int(inputs[name])
        else:
            env[slots[name]] = np.float32(inputs[name])
    with np.errstate(all="ignore"):  # as in C, a float overflows to inf without a word
        for fn in body:
            fn(env)
    return {name: callers[name].values.copy() if kind == "float*" else env[slots[name]]
            for name, kind in program.params}


# --------------------------------------------------------------------------
# random recorded programs
# --------------------------------------------------------------------------


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Gen:
    """Records one random program; every loop advances and ends."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ctx = StageContext(ProphecyStore(), run_index=1, name="rand")
        self.buffers = [self.ctx.parameter("float*"), self.ctx.parameter("float*")]
        self.n = self.ctx.parameter("int")
        self.ints = [self.n]  # int-valued handles in scope: loop variables, declared ints
        self.declared_ints = []
        self.floats = [self.ctx.parameter("float")]
        self.offset = self.ctx.parameter("int")  # read and assigned by kernels only, kept small
        self.stale = []  # declared in a block that has ended, so read only on purpose
        self.statements = 0

    def int_expr(self, depth: int = 0):
        rng = self.rng
        roll = rng.random()
        if depth > 1 or roll < 0.3:
            return rng.randint(-2, 6)
        if roll < 0.65:
            return rng.choice(self.ints)
        a = self.ctx.lift(self.int_expr(depth + 1))
        op = rng.choice("+-*%")
        if op == "%":  # mostly a positive literal, else through the interpreter's helper
            roll = rng.random()
            return a % (rng.randint(1, 7) if roll < 0.85 else -3 if roll < 0.9 else rng.choice(self.ints))
        return _ARITH[op](a, self.int_expr(depth + 1))

    def base(self):
        if self.rng.random() < 0.02:  # not a buffer: an int, often a loop variable, which C refuses
            return self.ctx.lift(self.rng.choice(self.ints))
        return self.rng.choice(self.buffers)

    def index(self):
        roll = self.rng.random()
        if roll < 0.01:  # a float, which C refuses as an index
            return self.rng.choice(self.floats)
        if roll < 0.04:  # a sum of two comparisons, each C's int 0 or 1
            load = lambda: self.buffers[0][self.rng.randint(0, 3)]
            return (load() < 1.0) + (load() < 1.0)
        idx = self.int_expr()
        if self.rng.random() < 0.8:  # mostly in bounds of the smaller buffers
            idx = self.ctx.lift(idx) % 4
        return idx

    def float_expr(self, depth: int = 0):
        rng = self.rng
        roll = rng.random()
        if depth > 1 or roll < 0.2:
            return rng.choice([0.5, -1.25, 3.0, 1e8])
        if roll < 0.5:
            return self.base()[self.index()]
        if roll < 0.65:
            return rng.choice(self.floats)
        a = self.ctx.lift(self.float_expr(depth + 1))
        return _ARITH[rng.choice("+-*")](a, self.float_expr(depth + 1))

    def cond(self):
        rng = self.rng
        op = rng.choice([operator.lt, operator.le, operator.gt, operator.ge])
        if rng.random() < 0.5:
            return op(self.ctx.lift(rng.choice(self.ints)), self.int_expr())
        return op(self.ctx.lift(self.float_expr()), self.float_expr())

    def block(self, depth: int, length: int) -> None:
        """Up to ``length`` statements; what they declare goes out of scope when the block ends."""
        scoped = (self.ints, self.declared_ints, self.floats, self.buffers)
        sizes = [len(handles) for handles in scoped]  # each only grows, less its loop variables
        for _ in range(length):
            if self.statements > 40:
                break
            self.statements += 1
            self.statement(depth)
        for handles, size in zip(scoped, sizes):
            self.stale += handles[size:]
            del handles[size:]

    def statement(self, depth: int) -> None:
        rng, ctx = self.rng, self.ctx
        kinds = ["store", "float", "int", "loop", "if", "copy", "alloc", "alias", "scalar"]
        weights = [30, 12, 6, 14 if depth < 3 else 0, 8, 6, 5, 3, 4]
        kind = rng.choices(kinds, weights)[0]
        if self.stale and rng.random() < 0.003:  # C refuses this read, and so must both interpreters
            ctx.assign(self.buffers[0][0], rng.choice(self.stale))
        elif kind == "store":
            value = self.float_expr() if rng.random() < 0.8 else self.int_expr()
            ctx.assign(self.base()[self.index()], value)
        elif kind == "float":  # now and then an int or a comparison, which a float holds as a float
            roll = rng.random()
            value = self.int_expr() if roll < 0.1 else self.cond() if roll < 0.15 else self.float_expr()
            if rng.random() < 0.5:
                ctx.assign(rng.choice(self.floats), value)
            else:
                # every declaration has a value; the draw that once chose none stays, so each
                # program that gave every declaration a value is recorded as before
                rng.random()
                self.floats.append(ctx.declare("float", value))
        elif kind == "int":
            roll = rng.random()  # now and then a pointer, which C refuses wherever it stands
            init = self.int_expr() if roll < 0.75 else self.float_expr() if roll < 0.99 else self.base()
            self.declared_ints.append(ctx.declare("int", init))
            self.ints.append(self.declared_ints[-1])
        elif kind == "loop":
            self.loop(depth)
        elif kind == "if":
            then_body = lambda: self.block(depth + 1, rng.randint(0, 3))
            else_body = lambda: self.block(depth + 1, rng.randint(0, 2))
            ctx.if_else(self.cond(), then_body, else_body if rng.random() < 0.6 else None)
        elif kind == "copy":
            name = rng.choice(
                ["runtime::memcpy", "runtime::cudaMemcpyToDevice", "runtime::cudaMemcpyToHost"]
            )
            dst, src = rng.choice(self.buffers), rng.choice(self.buffers)
            if rng.random() < 0.02:  # C refuses an int as a pointer
                src = rng.choice(self.ints)
            ctx.runtime(name, dst, src, rng.choice([0, 4, 8, 12, 16, 18, 32, 40]))
        elif kind == "alloc":
            alloc = rng.choice(["runtime::malloc", "runtime::cuda_malloc"])
            nbytes = rng.choice([16, 16, 24, 32, 0, -4])
            self.buffers.append(ctx.declare("float*", ctx.runtime_expr(alloc, nbytes)))
        elif kind == "alias":  # now and then an int, which C refuses in a float*
            value = rng.choice(self.ints if rng.random() < 0.02 else self.buffers)
            if rng.random() < 0.5:
                self.buffers.append(ctx.declare("float*", value))
            else:
                ctx.assign(rng.choice(self.buffers), value)
        else:  # never a loop variable: C allows no assignment to one here
            target = rng.choice([self.n, *self.declared_ints])
            ctx.assign(target, target + 1 if rng.random() < 0.5 else self.float_expr())

    def loop(self, depth: int) -> None:
        rng, ctx = self.rng, self.ctx
        shape = rng.choice(["counted", "counted", "var-start", "float-start", "kernel", "kernel"])
        if shape == "kernel":
            self.kernel(depth)
            return
        start = rng.randint(-1, 3)
        if shape == "var-start":
            start = ctx.lift(self.int_expr()) % 5 - 1
        elif shape == "float-start":
            start = rng.choice([0.5, -1.5, 2.75, self.floats[0]])
        bound = rng.randint(0, 6)
        if shape == "counted" and rng.random() < 0.25:
            start = bound  # an empty loop
        step = rng.choice([1, 1, 2, 3])

        def body(var) -> None:
            self.ints.append(var)
            self.block(depth + 1, rng.randint(0, 3))
            self.ints.remove(var)  # out of scope after its loop

        ctx.for_loop(start, bound, step, body)

    def kernel(self, depth: int) -> None:
        """A grid-shaped nest, as the einsum DSL records one: blocks, then threads, then a
        loop over the data from the block, the thread or the flat id ``bid * K + tid`` (some
        ``bid * K + offset + tid``, where the data loop may lower ``offset``), then
        ``grid_sync``.  Now and then a flat id is read after the nest, which is refused."""
        rng, ctx = self.rng, self.ctx
        blocks, threads, bound = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 8)
        start_from, k = rng.choice(["block", "thread", "flat", "flat"]), rng.choice([threads, 1, 2])
        if with_offset := rng.random() < 0.4:  # more threads than data, often
            start_from, threads, bound = "flat", rng.randint(2, 6), rng.randint(1, 6)
        step = rng.choice([1, threads, blocks * threads])
        flat = []

        def thread_body(bid, tid) -> None:
            self.ints += [bid, tid]
            if start_from == "flat":
                offset = bid * k + self.offset if with_offset else bid * k
                flat.append(ctx.declare("int", offset + tid))
            start = bid if start_from == "block" else tid if start_from == "thread" else flat[-1]

            def body(i) -> None:
                self.ints.append(i)
                if with_offset and rng.random() < 0.75:  # from 0 to 2 before: later flat ids
                    ctx.assign(self.offset, -1 - tid)  # start lower, and the output shows who ran
                self.block(depth + 3, rng.randint(0, 3))
                self.ints.remove(i)

            ctx.for_loop(start, bound, step, body)
            ctx.runtime("runtime::grid_sync")
            self.ints.remove(bid)
            self.ints.remove(tid)

        ctx.for_loop(0, blocks, 1, lambda bid: ctx.for_loop(0, threads, 1, lambda tid: thread_body(bid, tid)))
        if flat and rng.random() < 0.005:  # out of scope: on purpose, as in statement
            ctx.assign(self.buffers[0][0], flat[-1])


    def fill(self) -> None:
        """A top-level statement that may write a buffer whole, as the interpreter's fill rule
        sees it, or fall just short of that, then a read of the buffer at a literal index: a
        nest of loops from 0 by 1 that stores at the row-major index of its variables (some
        a bound short, strided, under an ``if`` or storing under one), or a copy of a buffer's
        size or of half of it, into a buffer allocated here now and then."""
        rng, ctx = self.rng, self.ctx
        dims = rng.choice([(4,), (2, 2), (4, 2), (2, 3)])
        size = math.prod(dims)
        if rng.random() < 0.6:
            buf = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 4 * size))
            self.buffers.append(buf)
        else:
            buf = rng.choice(self.buffers)
        shape = rng.choice(["nest", "nest", "short", "strided", "if", "store under if", "copy"])
        if shape == "copy":
            ctx.runtime("runtime::memcpy", buf, rng.choice(self.buffers), rng.choice([2, 4]) * size)
        else:
            value = lambda: (rng.choice([0.5, -1.25, 3.0]) if rng.random() < 0.7
                             else self.float_expr())
            store = lambda index: ctx.assign(buf[index], value())
            if shape == "store under if":
                store = lambda index, plain=store: ctx.if_else(self.cond(), lambda: plain(index))

            def nest(variables: list) -> None:
                depth = len(variables)
                if depth == len(dims):  # as einsum's flat_index: v0 * s0 + (v1 * s1 + ... + vn)
                    index = variables[-1]
                    for d in range(depth - 2, -1, -1):
                        index = variables[d] * math.prod(dims[d + 1:]) + index
                    store(index)
                    return
                bound = dims[depth] - (shape == "short" and depth == len(dims) - 1)
                step = 2 if shape == "strided" and depth == 0 else 1
                ctx.for_loop(0, bound, step, lambda v: nest(variables + [v]))

            if shape == "if":
                ctx.if_else(self.cond(), lambda: nest([]))
            else:
                nest([])
        ctx.assign(self.buffers[0][rng.randint(0, 3)], buf[rng.randint(0, size - 1)])


def random_recording(seed: int, kernels: bool = False, fills: bool = False):
    """A random program's recorder and inputs; with ``kernels``, one to three kernel nests only,
    and with ``fills``, top-level statements of which more than half are ``_Gen.fill``."""
    rng = random.Random(seed)
    gen = _Gen(rng)
    if kernels:
        for _ in range(rng.randint(1, 3)):
            gen.kernel(0)
    elif fills:
        for _ in range(rng.randint(2, 8)):
            gen.fill() if rng.random() < 0.6 else gen.statement(0)
    else:
        gen.block(0, rng.randint(1, 12))
    inputs = {
        "arg0": np.float32(rng.choices([0.25, -1.5, 2.0, 7.0], k=rng.choice([4, 5, 8]))),
        "arg1": np.float32(rng.choices([1.0, -0.5, 3.25], k=rng.choice([4, 6]))),
        "arg2": rng.randint(1, 4),
        "arg3": rng.choice([0.5, -2.0]),
        "arg4": rng.randint(0, 2),
    }
    return gen.ctx, inputs


def random_program(seed: int, kernels: bool = False, fills: bool = False):
    """A random program and inputs, or in place of a program C's types refuse, the ValueError
    building it gives."""
    ctx, inputs = random_recording(seed, kernels, fills)
    try:
        return ctx.finish(), inputs
    except ValueError as exc:
        return exc, inputs


def _outcome(interpret, program, inputs):
    try:
        outputs = interpret(program, inputs)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        [
            (name, str(value.dtype), value.tobytes())
            if isinstance(value, np.ndarray)
            else (name, type(value).__name__, repr(value))
            for name, value in sorted(outputs.items())
        ],
    )


@given(st.integers(0, 2**32))
@settings(max_examples=600, deadline=None)
def test_generated_source_matches_reference(seed):
    program, inputs = random_program(seed)
    if isinstance(program, SecondStageProgram):
        assert _outcome(interpret_program, program, inputs) == _outcome(
            reference_interpret, program, inputs
        )


@given(st.integers(0, 2**32))
@settings(max_examples=400, deadline=None)
def test_generated_kernels_match_reference(seed):
    program, inputs = random_program(seed, kernels=True)
    if isinstance(program, SecondStageProgram):
        assert _outcome(interpret_program, program, inputs) == _outcome(
            reference_interpret, program, inputs
        )


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_generated_fills_match_reference(seed):
    program, inputs = random_program(seed, fills=True)
    if isinstance(program, SecondStageProgram):
        assert _outcome(interpret_program, program, inputs) == _outcome(
            reference_interpret, program, inputs
        )


# Programs of seeds 0-299 that ended ok before the generator scoped its variables to their
# blocks (on seeds 0-1999: 481 and 1079; with block scope, 525 and 1091).
_OK_FLOOR = {"general": 68, "kernels": 161}


@pytest.mark.parametrize("mode", sorted(_OK_FLOOR))
def test_generator_mostly_runs_to_the_end(mode):
    drawn = [random_program(seed, kernels=mode == "kernels") for seed in range(300)]
    refused = sum(isinstance(p, ValueError) and " is used outside its " in str(p) for p, _ in drawn)
    assert 0 < refused <= 30  # the tests see refusals, but not mostly
    outcomes = [_outcome(interpret_program, p, inputs) for p, inputs in drawn
                if isinstance(p, SecondStageProgram)]
    assert sum(o[0] == "ok" for o in outcomes) >= _OK_FLOOR[mode]


# Programs of seeds 0-299 that build (236 general, 269 kernels, 274 fills) and whose printed
# source holds an access with no bounds test.
_PROVEN_FLOOR = {"general": 164, "kernels": 177, "fills": 271}
# Of those, the programs whose source reads an allocated buffer with no None test.  The general
# and kernel programs read none so: their copies take a random byte count and their stores a
# random index, so no allocation is filled.
_FILLED_FLOOR = {"general": 0, "kernels": 0, "fills": 125}


def _reads_allocated_bare(source: str) -> bool:
    allocated = set(re.findall(r"v(\d+) = _alloc\(", source))
    for line in source.splitlines():
        value = line.split(" = ", 1)[1] if re.match(r"\s*V\d+\[", line) else line  # a store's
        if allocated & set(re.findall(r"(?<!:= )V(\d+)\[", value)):  # not ``(_v := Vk[``
            return True
    return False


@pytest.mark.parametrize("mode", sorted(_PROVEN_FLOOR))
def test_seeded_programs_match_reference(monkeypatch, mode):
    sources = []
    monkeypatch.setattr(interp, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    proven = filled = 0
    for seed in range(300):
        program, inputs = random_program(seed, kernels=mode == "kernels", fills=mode == "fills")
        if isinstance(program, SecondStageProgram):
            outcome = _outcome(interpret_program, program, inputs)
            assert outcome == _outcome(reference_interpret, program, inputs), seed
            # each access prints one ``Vk[``, and a checked one a bounds test, ``< len(Vk)``
            counts = [len(re.findall(pattern, sources[-1])) for pattern in (r"V\d+\[", r"< len\(V\d+\)")]
            proven += counts[0] > counts[1]
            filled += _reads_allocated_bare(sources[-1])
    assert proven >= _PROVEN_FLOOR[mode]
    assert filled >= _FILLED_FLOOR[mode]


# Programs of seeds 0-99 that go over a budget of 5, 60 or 1000 loop iterations, counted once a
# budget: 14 general, 99 kernels, 52 fills.
_OVER_BUDGET_FLOOR = {"general": 14, "kernels": 99, "fills": 52}


@pytest.mark.parametrize("mode", sorted(_OVER_BUDGET_FLOOR))
def test_loop_budget_matches_reference(monkeypatch, mode):
    # budgets small enough that many programs go over them, where both interpreters must charge
    # every loop alike, the interpreter as C runs it
    passed = 0
    for budget in (5, 60, 1000):
        monkeypatch.setattr(interp, "MAX_LOOP_ITERATIONS", budget)
        for seed in range(100):
            program, inputs = random_program(seed, kernels=mode == "kernels", fills=mode == "fills")
            if isinstance(program, SecondStageProgram):
                outcome = _outcome(interpret_program, program, inputs)
                assert outcome == _outcome(reference_interpret, program, inputs), (budget, seed)
                passed += "runs past the budget" in str(outcome)
    assert passed >= _OVER_BUDGET_FLOOR[mode]


@pytest.mark.parametrize("seed, kernels", [(50, False), (0, True)])
def test_partial_element_copy_is_refused(seed, kernels):
    # each copies 18 bytes into a 16-byte buffer, a heap overflow under AddressSanitizer that
    # a count floored to 4 elements would let pass
    program, inputs = random_program(seed, kernels)
    outcome = _outcome(interpret_program, program, inputs)
    assert outcome[:2] == ("error", "InterpError")
    assert re.fullmatch(r"runtime::\w+: copying 18 bytes, not a whole number of elements",
                        outcome[2])
    assert _outcome(reference_interpret, program, inputs) == outcome


@pytest.mark.parametrize("case", sorted(c for c in INTERPRETED if "grid" in c or "conv" in c))
def test_pinned_builds_match_reference(case):
    build, make_inputs = INTERPRETED[case]
    program, _ = build()
    for seed in (0, 1):
        inputs = make_inputs(np.random.default_rng(seed))
        outcome = _outcome(interpret_program, program, inputs)
        assert outcome[0] == "ok"
        assert outcome == _outcome(reference_interpret, program, inputs)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusals_match_reference(case):
    # refused when built, so neither interpreter is given the program
    statement, message = REFUSED[case]
    ctx = _refused_recording(statement)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ctx.finish()


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_refusals_match_reference(case):
    # refused when built, so neither interpreter is given the program
    with pytest.raises(ValueError, match=f"^{re.escape(HAND_BUILT[case][1])}$"):
        _hand_built_program(case)


def test_reassigned_pointer_parameter_matches_reference():
    # arg1 = arg0; arg0[0] = 5.0: the caller's arg1 keeps its ones, as in C
    program = SecondStageProgram("alias", (("arg0", "float*"), ("arg1", "float*")), [
        Assign(VarRef("arg1"), VarRef("arg0")),
        Assign(ArrayIndex(VarRef("arg0"), IntLit(0)), FloatLit(5.0))])
    inputs = {"arg0": np.zeros(2), "arg1": np.ones(2)}
    expected = ("ok", [(name, "float32", np.float32(values).tobytes())
                       for name, values in (("arg0", [5, 0]), ("arg1", [1, 1]))])
    assert _outcome(interpret_program, program, inputs) == expected
    assert _outcome(reference_interpret, program, inputs) == expected


@pytest.mark.parametrize("case", sorted(C_COMPARISONS))
def test_comparisons_match_reference(case):
    program = _comparison_program(case)
    inputs = {"arg0": np.zeros(4)}
    expected = ("ok", [("arg0", "float32", np.float32(C_COMPARISONS[case][1]).tobytes())])
    assert _outcome(interpret_program, program, inputs) == expected
    assert _outcome(reference_interpret, program, inputs) == expected
