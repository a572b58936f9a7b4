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

Each call prints the program as one Python function, walking it as
``emit_c`` does (``_expr_src``/``_stmt_src`` mirror ``_expr_text``/
``_stmt_lines``), and runs it.  Variables are locals named by slot (``v3``),
so reading one that holds no value raises UnboundLocalError, reported under
its recorded name.  Checks are inline, in C order; a pointer variable's
buffer arrays, size and whether it holds a buffer stay in locals
(``V3 M3 N3 K3``).  A loop of the recorder's shape with a positive literal
step, a variable nothing assigns, and a start and bound ``is_int`` proves
integral runs as a ``range`` loop.  Others run as ``while`` loops, which
raise an InterpError naming the variable after MAX_LOOP_ITERATIONS
iterations, or at entry if a step of zero or less means they never end.
"""

import re
from typing import Any, Mapping

import numpy as np

from .second_stage import (
    _ELEM_BYTES, ArrayIndex, Assign, Binary, Declare, Expr, FloatLit, ForLoop, IfElse, IntLit,
    RuntimeCall, RuntimeCallExpr, SecondStageProgram, Stmt, VarRef, iter_stmts,
)

MAX_LOOP_ITERATIONS = 1 << 24  # per run of one while loop; range loops always end

_BINOPS = {"<": 0, "<=": 0, ">": 0, ">=": 0, "+": 1, "-": 1, "*": 2, "%": 2}  # binding strength
_ALLOCS = ("runtime::malloc", "runtime::cuda_malloc")
_COPIES = ("runtime::memcpy", "runtime::cudaMemcpyToDevice", "runtime::cudaMemcpyToHost")


class InterpError(Exception):
    pass


class Buffer:
    __slots__ = ("values", "mask", "name", "size")

    def __init__(self, values: np.ndarray, mask: bytearray, name: str):
        self.values = values
        self.mask = mask
        self.name = name
        self.size = len(values)


def _alloc(name: str, *args: Any) -> Buffer:
    (nbytes,) = args
    count = int(nbytes) // _ELEM_BYTES
    if count <= 0:
        raise InterpError(f"allocation of {nbytes} bytes at {name}")
    return Buffer(np.zeros(count, dtype=np.float32), bytearray(count), name)


def _buf(value: Any, where: str) -> Buffer:
    if not isinstance(value, Buffer):
        raise InterpError(f"{where}: expected a buffer, got {type(value).__name__}")
    return value


def _view(value: Any) -> tuple:
    if isinstance(value, Buffer):
        return value.values, value.mask, value.size, True
    return None, None, 0, False


def _in_bounds(buf: Buffer, i: Any) -> None:
    if i < 0 or i >= buf.size:
        raise InterpError(f"index {i} out of bounds for {buf.name} of size {buf.size}")


def _at(buf: Buffer, i: Any) -> Any:
    _in_bounds(buf, i)
    if not buf.mask[i]:
        raise InterpError(f"uninitialized read at {buf.name}[{i}]")
    return buf.values[i]


def _copy(name: str, dst: Buffer, src: Buffer, nbytes: Any) -> None:
    count = int(nbytes) // _ELEM_BYTES
    if count < 0:
        raise InterpError(f"{name}: copying {nbytes} bytes, a negative size")
    if count > dst.size or count > src.size:
        raise InterpError(f"{name}: copying {count} elements between {src.name}"
                          f" ({src.size}) and {dst.name} ({dst.size})")
    dst.values[:count] = src.values[:count]
    dst.mask[:count] = src.mask[:count]


class _Walk:
    """What printing one program needs beyond the node at hand."""

    def __init__(self, program: SecondStageProgram):
        stmts = list(iter_stmts(program.body))
        self.slots: dict[str, int] = {}
        declared = [s.var if isinstance(s, ForLoop) else s.name
                    for s in stmts if isinstance(s, (Declare, ForLoop))]
        for name in [name for name, _ in program.params] + declared:
            if name in self.slots:
                raise InterpError(f"duplicate variable name {name!r}")
            self.slots[name] = len(self.slots)
        pointers = [name for name, kind in program.params if kind.endswith("*")]
        pointers += [s.name for s in stmts if isinstance(s, Declare) and s.kind.endswith("*")]
        self.views = {self.slots[name] for name in pointers}
        self.assigned = {s.target.name for s in stmts
                         if isinstance(s, Assign) and isinstance(s.target, VarRef)}
        self.ints: set[str] = set()  # variables known to hold ints at this point, see is_int
        self.result = "return (" + "".join(f"v{k}, " for k in range(len(program.params))) + ")"
        self.constants: dict[str, Any] = {}

    def local(self, name: str) -> str:
        if name not in self.slots:
            raise InterpError(f"variable {name!r} is never declared")
        return f"v{self.slots[name]}"

    def view(self, base: Expr) -> int | None:
        k = self.slots.get(base.name) if isinstance(base, VarRef) else None
        return k if k in self.views else None

    def refresh(self, name: str, value: str) -> list[str]:
        k = self.slots[name]
        return [f"V{k}, M{k}, N{k}, K{k} = _view({value})"] if k in self.views else []

    def is_int(self, expr: Expr) -> bool:
        """Built of int literals, enclosing range loops' and never-assigned int variables."""
        match expr:
            case IntLit(value):
                return type(value) is int
            case VarRef(name):
                return name in self.ints
            case Binary("+" | "-" | "*" | "%", left, right):
                return self.is_int(left) and self.is_int(right)
        return False

    def block(self, stmts: list[Stmt], depth: int, out: list[str]) -> None:
        for stmt in stmts:
            _stmt_src(stmt, depth, out, self)
        out.append("    " * depth + "pass")  # a block may print nothing


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
        case ArrayIndex(base, index) if (k := w.view(base)) is not None:
            # a load inside the index is done with _i before this one assigns it
            return (f"(V{k}[_i] if (K{k} or _buf(v{k}, 'load')) and 0 <= (_i := "
                    f"{_expr_src(index, w)}) < N{k} and M{k}[_i] else _at(v{k}, _i))")
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
                lines = [f"{v} = None; del {v}", *w.refresh(name, "None")]
            else:
                lines = [f"{v} = {_expr_src(init, w, name)}", *w.refresh(name, v)]
                if w.is_int(init) and name not in w.assigned:
                    w.ints.add(name)
            out.extend(pad + line for line in lines)
        case Assign(VarRef(name), value):
            value_src, v = _expr_src(value, w), w.local(name)
            out.extend(pad + line for line in [f"{v} = {value_src}", *w.refresh(name, v)])
        case Assign(ArrayIndex(base, index), value):  # base, index, bounds, then the value
            value_src, k = _expr_src(value, w), w.view(base)
            if k is None:
                out.append(f"{pad}_b = _buf({_expr_src(base, w)}, 'store')")
                values, mask, check = "_b.values", "_b.mask", "_in_bounds(_b, _s)"
            else:
                out.append(f"{pad}if not K{k}: _buf(v{k}, 'store')")
                values, mask = f"V{k}", f"M{k}"
                check = f"if not 0 <= _s < N{k}: _in_bounds(v{k}, _s)"
            out.append(f"{pad}_s = {_expr_src(index, w)}")
            store = [check, f"{values}[_s] = {value_src}", f"{mask}[_s] = 1"]
            out.extend(pad + line for line in store)
        case Assign(target, value):
            _expr_src(value, w)
            raise InterpError(f"bad assignment target {target!r}")
        case ForLoop(var, init, cond, step, body):
            v = w.local(var)
            out.append(f"{pad}{v} = {_expr_src(init, w)}")
            counted = None
            match cond, step:
                case Binary("<", VarRef(a), bound), Binary("+", VarRef(b), IntLit(by)) if (
                    a == b == var and type(by) is int and var not in w.assigned
                    and w.is_int(bound)
                ):
                    counted = by
            if counted is not None and counted > 0 and w.is_int(init):
                bound_src = _expr_src(bound, w)
                out.append(f"{pad}if {v} < {bound_src}:")  # an empty loop leaves v at start
                out.append(f"{pad}    for {v} in range({v}, {bound_src}, {counted}):")
                w.ints.add(var)
                w.block(body, depth + 2, out)
                w.ints.discard(var)
                out.append(f"{pad}    {v} = {v} + {counted}")  # its first value >= bound
                return
            cond_src, step_src = _expr_src(cond, w), _expr_src(step, w)
            if counted is not None and counted <= 0:
                endless = f"loop over {var} never ends: its step {counted} does not advance it"
                out.append(f"{pad}if {cond_src}: raise InterpError({endless!r})")
            out.append(f"{pad}for _ in range(MAX_LOOP_ITERATIONS):")
            out.append(f"{pad}    if not {cond_src}: break")
            w.block(body, depth + 1, out)
            unfinished = f"loop over {var} still running after {MAX_LOOP_ITERATIONS} iterations"
            out.extend([f"{pad}    {v} = {step_src}", f"{pad}else:"])
            out.append(f"{pad}    if {cond_src}: raise InterpError({unfinished!r})")
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
    name), every scalar parameter by a scalar input (its final value is
    returned).  A program nested deeper than Python compiles (20 loops,
    about 200 parentheses) is an InterpError.
    """
    w = _Walk(program)
    args: list[Any] = []
    for name, kind in program.params:
        if name not in inputs:
            raise InterpError(f"missing input for parameter {name!r}")
        if kind.endswith("*"):
            values = np.asarray(inputs[name], dtype=np.float32).ravel().copy()
            args.append(Buffer(values, bytearray(b"\x01" * len(values)), name))
        elif kind == "int":
            args.append(int(inputs[name]))
        elif kind == "float":
            args.append(np.float32(inputs[name]))
        else:
            raise InterpError(f"unsupported parameter kind {kind!r}")
    body: list[str] = []
    w.block(program.body, 1, body)
    params = [f"v{k}" for k in range(len(args))] + [f"{c}={c}" for c in w.constants]
    views = [f"    {w.refresh(name, w.local(name) if k < len(args) else 'None')[0]}"
             for name, k in w.slots.items() if k in w.views]
    source = "\n".join([f"def _program({', '.join(params)}):", *views, *body, f"    {w.result}"])
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
    return {name: value.values.copy() if isinstance(value, Buffer) else value
            for (name, _), value in zip(program.params, final)}
