"""Reference interpreter for second-stage programs.

Executes a recorded program directly, standing in for a C toolchain and a
GPU: device allocations become host allocations, memory-transfer calls
become buffer copies, and ``grid_sync`` is a no-op.  The recorded block/
thread grid is just a pair of loops, so "GPU" code runs by iterating every
(block, thread) pair.

Float values use genuine 32-bit arithmetic (numpy scalars), matching the
DSLs' float element type; integers are Python ints (loop counters and flat
indices only).  A buffer's elements are a Python list of ``np.float32``
scalars, with ``None`` where nothing wrote: a store coerces its value as a
float32 array would, a copy carries the ``None`` along rather than
legitimizing uninitialized data, and an output reads unwritten elements as
0.0.  Out-of-bounds indexing, an index that is not an integer and reading
an element that holds ``None`` are fatal, with the offending location in
the message.

Each call prints the program as one Python function, walking it as
``emit_c`` does (``_expr_src``/``_stmt_src`` mirror ``_expr_text``/
``_stmt_lines``), and runs it.  Variables are locals named by slot (``v3``),
so reading one that holds no value raises UnboundLocalError, reported under
its recorded name.  Checks run in C order: the base holds a buffer, then the
index, its bounds, and for a store the value.  A pointer slot is proven to
hold a buffer when it is a parameter nothing assigns, or when an allocation
declares it and nothing assigns it, from the declaration to the end of its
block; its element list and size stay in locals (``V3 N3``).  An access
through a proven slot at an index ``is_int`` proves integral is inline, with
only the bounds and ``None`` tests; every other access calls ``_buf`` and
``_at``/``_in_bounds``.  A ``ForLoop`` is counted, so it runs as a ``range``
loop; as in C, its variable is never assigned and in scope only while its
body prints, and an int variable holds only ints (``_int``).
"""

import numbers
import re
from typing import Any, Mapping

import numpy as np

from .second_stage import (
    _ELEM_BYTES, ArrayIndex, Assign, Binary, Declare, Expr, FloatLit, ForLoop, IfElse, IntLit,
    RuntimeCall, RuntimeCallExpr, SecondStageProgram, Stmt, VarRef, iter_stmts,
)

_f32 = np.float32
_BINOPS = {"<": 0, "<=": 0, ">": 0, ">=": 0, "+": 1, "-": 1, "*": 2, "%": 2}  # binding strength
_ALLOCS = ("runtime::malloc", "runtime::cuda_malloc")
_COPIES = ("runtime::memcpy", "runtime::cudaMemcpyToDevice", "runtime::cudaMemcpyToHost")


class InterpError(Exception):
    pass


class Buffer:
    __slots__ = ("values", "name", "size")

    def __init__(self, values: list, name: str):
        self.values = values  # np.float32 scalars, None where nothing wrote
        self.name = name
        self.size = len(values)


def _alloc(name: str, *args: Any) -> Buffer:
    (nbytes,) = args
    count = int(nbytes) // _ELEM_BYTES
    if count <= 0:
        raise InterpError(f"allocation of {nbytes} bytes at {name}")
    return Buffer([None] * count, name)


def _int(value: Any, name: str) -> int:
    """``value`` as C stores it in int variable ``name``: truncated toward zero."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # a buffer, nan, inf
        what = "a buffer" if isinstance(value, Buffer) else value
        raise InterpError(f"int {name} cannot hold {what}") from None


def _buf(value: Any, where: str) -> Buffer:
    if not isinstance(value, Buffer):
        raise InterpError(f"{where}: expected a buffer, got {type(value).__name__}")
    return value


def _in_bounds(buf: Buffer, i: Any) -> None:
    if i < 0 or i >= buf.size:
        raise InterpError(f"index {i} out of bounds for {buf.name} of size {buf.size}")
    if not isinstance(i, int):
        raise InterpError(f"index {i} into {buf.name} is not an integer")


def _at(buf: Buffer, i: Any) -> Any:
    _in_bounds(buf, i)
    if (value := buf.values[i]) is None:
        raise InterpError(f"uninitialized read at {buf.name}[{i}]")
    return value


def _copy(name: str, dst: Buffer, src: Buffer, nbytes: Any) -> None:
    count = int(nbytes) // _ELEM_BYTES
    if count < 0:
        raise InterpError(f"{name}: copying {nbytes} bytes, a negative size")
    if count > dst.size or count > src.size:
        raise InterpError(f"{name}: copying {count} elements between {src.name}"
                          f" ({src.size}) and {dst.name} ({dst.size})")
    dst.values[:count] = src.values[:count]


class _Walk:
    """What printing one program needs beyond the node at hand."""

    def __init__(self, program: SecondStageProgram):
        stmts = list(iter_stmts(program.body))
        self.slots: dict[str, int] = {}
        declared = [(s.var, "int") if isinstance(s, ForLoop) else (s.name, s.kind)
                    for s in stmts if isinstance(s, (Declare, ForLoop))]
        for name, _ in [*program.params, *declared]:
            if name in self.slots:
                raise InterpError(f"duplicate variable name {name!r}")
            self.slots[name] = len(self.slots)
        self.assigned = {s.target.name for s in stmts
                         if isinstance(s, Assign) and isinstance(s.target, VarRef)}
        self.outside = {s.var for s in stmts if isinstance(s, ForLoop)}  # out of scope, see local
        if assigned := self.outside & self.assigned:
            raise InterpError(f"loop variable {min(assigned)} is assigned")
        # pointer slots known to hold a buffer at this point, see inline and block
        self.proven = {self.slots[name] for name, kind in program.params
                       if kind.endswith("*") and name not in self.assigned}
        self.ints = {name for name, kind in [*program.params, *declared] if kind == "int"}
        self.result = "return (" + "".join(f"v{k}, " for k in range(len(program.params))) + ")"
        self.constants: dict[str, Any] = {}

    def local(self, name: str) -> str:
        if name not in self.slots:
            raise InterpError(f"variable {name!r} is never declared")
        if name in self.outside:
            raise InterpError(f"loop variable {name} is used outside its loop")
        return f"v{self.slots[name]}"

    def inline(self, base: Expr, index: Expr) -> int | None:
        """The slot of a base proven to hold a buffer, when the index is proven an int."""
        k = self.slots.get(base.name) if isinstance(base, VarRef) else None
        return k if k in self.proven and self.is_int(index) else None

    def is_int(self, expr: Expr) -> bool:
        """Built of int literals and int variables (parameters, declarations, loop variables)."""
        match expr:
            case IntLit(value):
                return type(value) is int
            case VarRef(name):
                return name in self.ints
            case Binary("+" | "-" | "*" | "%", left, right):
                return self.is_int(left) and self.is_int(right)
        return False

    def stored(self, name: str, expr: Expr, src: str) -> str:
        """The source ``src`` of ``expr`` as variable ``name`` holds it: C converts to an int."""
        return f"_int({src}, {name!r})" if name in self.ints and not self.is_int(expr) else src

    def block(self, stmts: list[Stmt], depth: int, out: list[str]) -> None:
        proven = set(self.proven)  # an allocation proves its pointer until its block ends
        for stmt in stmts:
            _stmt_src(stmt, depth, out, self)
        out.append("    " * depth + "pass")  # a block may print nothing
        self.proven = proven


def _expr_src(expr: Expr, w: _Walk, alloc_name: str | None = None, prec: int = 0) -> str:
    match expr:
        case IntLit(value):
            return repr(value)
        case FloatLit(value):
            name = f"_c{len(w.constants)}"
            w.constants[name] = np.float32(value)
            return name
        case VarRef(name):
            return w.local(name)
        case Binary(op, left, right):
            if op not in _BINOPS:
                raise InterpError(f"unknown binary operator {op!r}")
            p = _BINOPS[op]  # parentheses only where Python would group otherwise
            text = f"{_expr_src(left, w, prec=p + (p == 0))} {op} {_expr_src(right, w, prec=p + 1)}"
            return text if p >= prec else f"({text})"
        case ArrayIndex(base, index) if (k := w.inline(base, index)) is not None:
            return (f"(_v if 0 <= (_i := {_expr_src(index, w)}) < N{k} and "
                    f"(_v := V{k}[_i]) is not None else _at(v{k}, _i))")
        case ArrayIndex(base, index):
            return f"_at(_buf({_expr_src(base, w)}, 'load'), {_expr_src(index, w)})"
        case RuntimeCallExpr(name, args):
            if name in _ALLOCS:
                arg_src = "".join(f", {_expr_src(a, w)}" for a in args)
                return f"_alloc({alloc_name or name!r}{arg_src})"
            raise InterpError(f"runtime call {name} does not produce a value")
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_src(stmt: Stmt, depth: int, out: list[str], w: _Walk) -> None:
    pad = "    " * depth
    match stmt:
        case Declare(name, _, init):
            v = w.local(name)
            if init is None:  # holds no value until assigned
                out.append(f"{pad}{v} = None; del {v}")
                return
            out.append(f"{pad}{v} = {w.stored(name, init, _expr_src(init, w, name))}")
            if name in w.assigned:
                return
            if isinstance(init, RuntimeCallExpr) and init.name in _ALLOCS:
                w.proven.add(k := w.slots[name])
                out.append(f"{pad}V{k}, N{k} = {v}.values, {v}.size")
        case Assign(VarRef(name), value):
            value_src = w.stored(name, value, _expr_src(value, w))
            out.append(f"{pad}{w.local(name)} = {value_src}")
        case Assign(ArrayIndex(base, index), value):  # base, index, bounds, then the value
            value_src, k = _expr_src(value, w), w.inline(base, index)
            if k is None:
                out.append(f"{pad}_b = _buf({_expr_src(base, w)}, 'store')")
                values, check = "_b.values", "_in_bounds(_b, _s)"
            else:
                values, check = f"V{k}", f"if not 0 <= _s < N{k}: _in_bounds(v{k}, _s)"
            out.append(f"{pad}_s = {_expr_src(index, w)}")
            store = f"{values}[_s] = _v if type(_v := {value_src}) is _f32 else _f32(_v)"
            out.extend([f"{pad}{check}", f"{pad}{store}"])
        case Assign(target, value):
            _expr_src(value, w)
            raise InterpError(f"bad assignment target {target!r}")
        case ForLoop(var, start, bound, step, body):
            start_src = w.stored(var, start, _expr_src(start, w))
            w.outside.discard(var)
            v = w.local(var)
            out.append(f"{pad}{v} = {start_src}")
            # range alone would do; this test spares the many empty grid-stride loops building one
            out.append(f"{pad}if {v} < {bound.value}:")
            out.append(f"{pad}    for {v} in range({v}, {bound.value}, {step.value}):")
            w.block(body, depth + 2, out)
            w.outside.add(var)
        case IfElse(cond, then_body, else_body):
            out.append(f"{pad}if {_expr_src(cond, w)}:")
            w.block(then_body, depth + 1, out)
            if else_body is not None:
                out.append(f"{pad}else:")
                w.block(else_body, depth + 1, out)
        case RuntimeCall(name, args):
            arg_src = [_expr_src(a, w) for a in args]
            if name in _COPIES:
                checked = [f"_buf({a}, {name!r})" for a in arg_src[:2]]
                out.append(f"{pad}_copy({name!r}, {', '.join(checked)}, {arg_src[2]})")
            elif name != "runtime::grid_sync":
                raise InterpError(f"runtime call {name} is not a statement")
        case _:
            raise TypeError(f"not a statement: {stmt!r}")


def interpret_program(program: SecondStageProgram, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Run a recorded program on named inputs; outputs are final parameter values.

    Every pointer parameter must be covered by an input array (it arrives
    fully initialized and its final contents are returned under the same
    name), every int parameter by an integer and every float parameter by a
    real number (its final value is returned); any other input is an
    InterpError naming the parameter.  A program nested deeper than Python compiles (20 loops,
    about 200 parentheses) is an InterpError.
    """
    w = _Walk(program)
    args: list[Any] = []
    for name, kind in program.params:
        if name not in inputs:
            raise InterpError(f"missing input for parameter {name!r}")
        value = inputs[name]
        if kind.endswith("*"):
            if np.ndim(value) == 0:  # None, or a bare scalar
                raise InterpError(f"parameter {name!r} needs an array, got {type(value).__name__}")
            args.append(Buffer(list(np.asarray(value, dtype=np.float32).ravel()), name))
        elif kind == "int":
            if not isinstance(value, numbers.Integral):
                raise InterpError(f"parameter {name!r} needs an integer, got {value!r}")
            args.append(int(value))
        elif kind == "float":
            if not isinstance(value, numbers.Real):
                raise InterpError(f"parameter {name!r} needs a number, got {value!r}")
            args.append(np.float32(value))
        else:
            raise InterpError(f"unsupported parameter kind {kind!r}")
    body = [f"    V{k}, N{k} = v{k}.values, v{k}.size" for k in sorted(w.proven)]
    w.block(program.body, 1, body)
    params = [f"v{k}" for k in range(len(args))] + [f"{c}={c}" for c in w.constants]
    source = "\n".join([f"def _program({', '.join(params)}):", *body, f"    {w.result}"])
    namespace = dict(w.constants)
    try:
        exec(compile(source, f"<{program.name}>", "exec"), globals(), namespace)
    except SyntaxError as exc:
        raise InterpError(f"program {program.name} is nested too deeply: {exc.msg}") from None
    try:
        final = namespace["_program"](*args)
    except UnboundLocalError as exc:
        if not (unset := re.search(r"'v(\d+)'", str(exc))):
            raise
        name = list(w.slots)[int(unset[1])]
        raise InterpError(f"variable {name} used before it holds a value") from None
    return {name: np.array([0.0 if x is None else x for x in value.values], np.float32)
            if isinstance(value, Buffer) else value
            for (name, _), value in zip(program.params, final)}
