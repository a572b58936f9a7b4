"""Reference interpreter for second-stage programs.

Executes a recorded program directly, standing in for a C toolchain and a
GPU: device allocations become host allocations, memory-transfer calls
become buffer copies, and ``grid_sync`` is a no-op.  The recorded block/
thread grid is just a pair of loops, so "GPU" code runs by iterating every
(block, thread) pair.

Float values use genuine 32-bit arithmetic (numpy scalars), matching the
DSLs' float element type; integers are Python ints (loop counters and flat
indices only).  Out-of-bounds indexing and reading an element nothing ever
wrote are fatal, with the offending location in the message.  Buffers are
zero-filled at allocation so never-read garbage cannot make runs differ,
but the initialized mask is what gates reads — copies propagate the mask
rather than legitimizing uninitialized data.

For speed each AST node is compiled once into a closure over an environment
list; interpretation is then closure calls only.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

import numpy as np

from .second_stage import (
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
    Return,
    RuntimeCall,
    RuntimeCallExpr,
    SecondStageProgram,
    Stmt,
    Unary,
    VarRef,
)


class InterpError(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class Buffer:
    __slots__ = ("values", "mask", "name", "freed")

    def __init__(self, values: np.ndarray, mask: bytearray, name: str):
        self.values = values
        self.mask = mask
        self.name = name
        self.freed = False

    @property
    def size(self) -> int:
        return len(self.values)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _collect_slots(program: SecondStageProgram) -> dict[str, int]:
    slots: dict[str, int] = {}

    def add(name: str) -> None:
        if name in slots:
            raise InterpError(f"duplicate variable name {name!r}")
        slots[name] = len(slots)

    def walk(stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Declare):
                add(stmt.name)
            elif isinstance(stmt, ForLoop):
                add(stmt.var)
                walk(stmt.body)
            elif isinstance(stmt, IfElse):
                walk(stmt.then_body)
                if stmt.else_body is not None:
                    walk(stmt.else_body)

    for name, _ in program.params:
        add(name)
    walk(program.body)
    return slots


def _alloc(args: tuple[Any, ...], name: str) -> Buffer:
    (nbytes,) = args
    count = int(nbytes) // _ELEM_BYTES
    if count <= 0:
        raise InterpError(f"allocation of {nbytes} bytes at {name}")
    return Buffer(np.zeros(count, dtype=np.float32), bytearray(count), name)


def _as_buffer(value: Any, where: str) -> Buffer:
    if not isinstance(value, Buffer):
        raise InterpError(f"{where}: expected a buffer, got {type(value).__name__}")
    if value.freed:
        raise InterpError(f"{where}: buffer {value.name} was freed")
    return value


def _compile_expr(
    expr: Expr, slots: Mapping[str, int], alloc_name: str | None = None
) -> Callable[[list], Any]:
    match expr:
        case IntLit(value):
            return lambda env: value
        case FloatLit(value):
            const = np.float32(value)
            return lambda env: const
        case VarRef(name):
            if name not in slots:
                raise InterpError(f"variable {name!r} is never declared")
            slot = slots[name]

            def read_var(env, slot=slot, name=name):
                value = env[slot]
                if value is None:
                    raise InterpError(f"variable {name} used before it holds a value")
                return value

            return read_var
        case Binary(op, left, right):
            if op not in _BINOPS:
                raise InterpError(f"unknown binary operator {op!r}")
            fn = _BINOPS[op]
            lf = _compile_expr(left, slots)
            rf = _compile_expr(right, slots)
            return lambda env: fn(lf(env), rf(env))
        case Unary(op, operand):
            inner = _compile_expr(operand, slots)
            if op == "-":
                return lambda env: -inner(env)
            raise InterpError(f"unknown unary operator {op!r}")
        case ArrayIndex(base, index):
            bf = _compile_expr(base, slots)
            xf = _compile_expr(index, slots)

            def load(env):
                buf = _as_buffer(bf(env), "load")
                i = xf(env)
                if i < 0 or i >= buf.size:
                    raise InterpError(
                        f"index {i} out of bounds for {buf.name} of size {buf.size}"
                    )
                if not buf.mask[i]:
                    raise InterpError(f"uninitialized read at {buf.name}[{i}]")
                return buf.values[i]

            return load
        case RuntimeCallExpr(name, args):
            if name in ("runtime::malloc", "runtime::cuda_malloc"):
                arg_fns = [_compile_expr(a, slots) for a in args]
                label = alloc_name or name

                def allocate(env, label=label):
                    return _alloc(tuple(f(env) for f in arg_fns), label)

                return allocate
            raise InterpError(f"runtime call {name} does not produce a value")
    raise TypeError(f"not an expression: {expr!r}")


def _compile_stmt(stmt: Stmt, slots: Mapping[str, int]) -> Callable[[list], None]:
    match stmt:
        case Declare(name, _, init):
            slot = slots[name]
            if init is None:
                def declare(env):
                    env[slot] = None
                return declare
            init_fn = _compile_expr(init, slots, alloc_name=name)

            def declare_init(env):
                env[slot] = init_fn(env)

            return declare_init
        case Assign(target, value):
            vf = _compile_expr(value, slots)
            if isinstance(target, VarRef):
                slot = slots[target.name]

                def store_var(env):
                    env[slot] = vf(env)

                return store_var
            if isinstance(target, ArrayIndex):
                bf = _compile_expr(target.base, slots)
                xf = _compile_expr(target.index, slots)

                def store_elem(env):
                    buf = _as_buffer(bf(env), "store")
                    i = xf(env)
                    if i < 0 or i >= buf.size:
                        raise InterpError(
                            f"index {i} out of bounds for {buf.name} of size {buf.size}"
                        )
                    buf.values[i] = vf(env)
                    buf.mask[i] = 1

                return store_elem
            raise InterpError(f"bad assignment target {target!r}")
        case ForLoop(var, init, cond, step, body):
            slot = slots[var]
            init_fn = _compile_expr(init, slots)
            cond_fn = _compile_expr(cond, slots)
            step_fn = _compile_expr(step, slots)
            body_fns = [_compile_stmt(s, slots) for s in body]

            def loop(env):
                env[slot] = init_fn(env)
                while cond_fn(env):
                    for fn in body_fns:
                        fn(env)
                    env[slot] = step_fn(env)

            return loop
        case IfElse(cond, then_body, else_body):
            cond_fn = _compile_expr(cond, slots)
            then_fns = [_compile_stmt(s, slots) for s in then_body]
            else_fns = [_compile_stmt(s, slots) for s in (else_body or [])]

            def branch(env):
                for fn in then_fns if cond_fn(env) else else_fns:
                    fn(env)

            return branch
        case RuntimeCall(name, args):
            arg_fns = [_compile_expr(a, slots) for a in args]
            if name in (
                "runtime::memcpy",
                "runtime::cudaMemcpyToDevice",
                "runtime::cudaMemcpyToHost",
            ):

                def copy(env):
                    dst = _as_buffer(arg_fns[0](env), name)
                    src = _as_buffer(arg_fns[1](env), name)
                    count = int(arg_fns[2](env)) // _ELEM_BYTES
                    if count > dst.size or count > src.size:
                        raise InterpError(
                            f"{name}: copying {count} elements between {src.name}"
                            f" ({src.size}) and {dst.name} ({dst.size})"
                        )
                    dst.values[:count] = src.values[:count]
                    dst.mask[:count] = src.mask[:count]

                return copy
            if name == "runtime::grid_sync":
                return lambda env: None
            if name == "runtime::free":

                def free(env):
                    _as_buffer(arg_fns[0](env), name).freed = True

                return free
            raise InterpError(f"runtime call {name} is not a statement")
        case Return(value):
            if value is None:
                def ret(env):
                    raise _ReturnSignal(None)
                return ret
            vf = _compile_expr(value, slots)

            def ret_value(env):
                raise _ReturnSignal(vf(env))

            return ret_value
    raise TypeError(f"not a statement: {stmt!r}")


def interpret_program(
    program: SecondStageProgram, inputs: Mapping[str, Any]
) -> dict[str, Any]:
    """Run a recorded program on named inputs; outputs are final buffer contents.

    Every pointer parameter must be covered by an input array (it arrives
    fully initialized and its final contents are returned under the same
    name); scalar parameters must be covered by scalar inputs and are echoed
    back unchanged.
    """
    slots = _collect_slots(program)
    env: list[Any] = [None] * len(slots)
    for name, kind in program.params:
        if name not in inputs:
            raise InterpError(f"missing input for parameter {name!r}")
        if kind.endswith("*"):
            values = np.asarray(inputs[name], dtype=np.float32).ravel().copy()
            env[slots[name]] = Buffer(values, bytearray(b"\x01" * len(values)), name)
        elif kind == "int":
            env[slots[name]] = int(inputs[name])
        elif kind == "float":
            env[slots[name]] = np.float32(inputs[name])
        else:
            raise InterpError(f"unsupported parameter kind {kind!r}")
    body = [_compile_stmt(s, slots) for s in program.body]
    try:
        for fn in body:
            fn(env)
    except _ReturnSignal:
        pass
    outputs: dict[str, Any] = {}
    for name, kind in program.params:
        value = env[slots[name]]
        outputs[name] = value.values.copy() if isinstance(value, Buffer) else value
    return outputs
