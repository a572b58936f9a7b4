"""Reference interpreter for second-stage programs.

Executes a recorded program directly, standing in for a C toolchain and a
GPU: device allocations become host allocations, memory-transfer calls
become buffer copies, and ``grid_sync`` is a no-op.  The recorded block/
thread grid is just a pair of loops, so "GPU" code runs by iterating the
(block, thread) pairs, less those that provably do nothing (see below), as
idle threads on a GPU cost next to nothing.

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
its recorded name.  As in C, a declared variable is in scope from its
declaration to the end of its block, and a loop variable in its loop's body
only; a read anywhere else is an InterpError.  Checks run in C order: the
base holds a buffer, then the index, its bounds, and for a store the value.
A pointer slot is proven to hold a buffer when it is a parameter nothing
assigns, or when an allocation declares it and nothing assigns it; its
element list and size stay in locals (``V3 N3``).  An access through a
proven slot at an index ``is_int`` proves integral is inline, with only the
bounds and ``None`` tests; every other access calls ``_buf`` and
``_at``/``_in_bounds``.  As in C, an int variable holds only ints (``_int``),
a float variable given an int or a comparison holds it as a float32, and
``%`` truncates toward zero: inline with one sign test for a positive
int-literal divisor, through ``_mod`` otherwise, where a zero divisor is an
InterpError.  What C's types refuse is refused when the program is printed:
a pointer (a ``float*`` variable or an allocation) as an operand, an index,
a stored element, an ``int`` or ``float`` variable's value, a loop start or
a copy or allocation size; and a float operand of ``%`` (see ``is_float``).

A ``ForLoop`` is counted, so it runs as a ``range`` loop; as in C, its
variable is never assigned.  The range stops early, at a value computed
once before the loop, when the later iterations provably do nothing: when
each statement of the body for loop variable ``v`` is
  (a) ``grid_sync``;
  (b) a loop starting at ``v``, or at an ``int d = e + v`` declared before it
      in the same body, so empty once ``v`` reaches its bound (less ``e``),
      where ``e`` is built of int literals, ``+ - *``, enclosing loop
      variables and int parameters that nothing assigns, so it can neither
      raise, nor read a variable that holds no value, nor change while the
      loop runs (the body of a loop in (b) is not checked);
  (c) a loop whose start is built the same way from those, ``v`` and the
      loop variables in between, and whose own body holds only (a) to (d); or
  (d) such a declaration of ``d``, which nothing outside the loop can read.
So a skipped iteration would have stored, copied, allocated and raised
nothing.  On a grid larger than its data, an einsum kernel with two output
indices runs over the data's cells only; one with a single index (a flat
thread id) still visits every block, with no thread past the data.
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
_BINOPS = {"<": 0, "<=": 0, ">": 0, ">=": 0, "+": 1, "-": 1, "*": 2}  # binding strength; % prints atomic
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


def _alloc(name: str, nbytes: Any) -> Buffer:
    count = int(nbytes) // _ELEM_BYTES
    if count <= 0:
        raise InterpError(f"allocation of {nbytes} bytes at {name}")
    return Buffer([None] * count, name)


def _int(value: Any, name: str) -> int:
    """``value`` as C stores it in int variable ``name``: truncated toward zero."""
    try:
        return int(value)
    except (ValueError, OverflowError):  # nan, inf
        raise InterpError(f"int {name} cannot hold {value}") from None


def _mod(a: Any, b: Any) -> Any:
    """C's ``a % b``: truncated toward zero, so the remainder takes the sign of ``a``."""
    if b == 0:
        raise InterpError(f"{a} % {b} divides by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


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
        self.loops = frozenset(s.var for s in stmts if isinstance(s, ForLoop))
        if assigned := self.loops & self.assigned:
            raise InterpError(f"loop variable {min(assigned)} is assigned")
        # out of scope until declared, and again once their block ends: see local and block
        self.outside = {name for name, _ in declared}
        # pointer slots known to hold a buffer wherever their variable is in scope, see inline
        self.proven = {self.slots[name] for name, kind in program.params
                       if kind.endswith("*") and name not in self.assigned}
        self.kinds = dict([*program.params, *declared])
        self.fixed_params = {name for name, kind in program.params  # int, and never assigned
                             if kind == "int" and name not in self.assigned}
        self.result = "return (" + "".join(f"v{k}, " for k in range(len(program.params))) + ")"
        self.constants: dict[str, Any] = {}

    def local(self, name: str) -> str:
        if name not in self.slots:
            raise InterpError(f"variable {name!r} is never declared")
        if name in self.outside:
            if name in self.loops:
                raise InterpError(f"loop variable {name} is used outside its loop")
            raise InterpError(f"variable {name} is used outside its block")
        return f"v{self.slots[name]}"

    def inline(self, base: Expr, index: Expr) -> int | None:
        """The slot of a base proven to hold a buffer, when the index is proven an int."""
        self.number(index)  # every access checks its index here, inline or not
        if not isinstance(base, VarRef):
            return None
        self.local(base.name)  # in scope, as every read must be: proven keeps a slot past its block
        k = self.slots[base.name]
        return k if k in self.proven and self.is_int(index) else None

    def is_int(self, expr: Expr) -> bool:
        """Built of int literals and int variables (parameters, declarations, loop variables)."""
        match expr:
            case IntLit(value):
                return type(value) is int
            case VarRef(name):
                return self.kinds.get(name) == "int"
            case Binary("+" | "-" | "*" | "%", left, right):
                return self.is_int(left) and self.is_int(right)
        return False

    def is_float(self, expr: Expr) -> bool:
        """A float literal or variable, a load, or arithmetic on one: what C's ``%`` refuses."""
        match expr:
            case Binary("+" | "-" | "*" | "%", left, right):
                return self.is_float(left) or self.is_float(right)
            case VarRef(name):
                return self.kinds.get(name) == "float"
        return isinstance(expr, (FloatLit, ArrayIndex))

    def number(self, expr: Expr, holder: str = "") -> Expr:
        """``expr`` where C wants a number (``holder``'s value, say): never a pointer, that is
        an allocation or a ``float*`` variable in scope (out of scope, ``local`` refuses it)."""
        if isinstance(expr, (VarRef, RuntimeCallExpr)) and (expr.name in _ALLOCS or (
                self.kinds.get(expr.name, "").endswith("*") and expr.name not in self.outside)):
            raise InterpError(f"{holder} cannot hold a buffer" if holder
                              else f"pointer {expr.name} used as a number")
        return expr

    def stored(self, name: str, expr: Expr, src: str) -> str:
        """The source ``src`` of ``expr`` as variable ``name`` holds it: C converts to its kind
        (a comparison, which is a Python bool here, too), and refuses a pointer."""
        if (kind := self.kinds.get(name)) in ("int", "float"):
            self.number(expr, f"{kind} {name}")
        if kind == "int":
            return src if self.is_int(expr) else f"_int({src}, {name!r})"
        integral = self.is_int(expr) or isinstance(expr, Binary) and _BINOPS.get(expr.op) == 0
        return f"_f32({src})" if kind == "float" and integral else src

    def stop(self, loop: ForLoop) -> int | str:
        """Where ``loop``'s range stops: its bound, or before it when every later iteration
        provably does nothing (see the module docstring), as a literal or as the source of
        a value computed once before the loop."""
        v = loop.var
        before = (self.loops - self.outside) | self.fixed_params  # fixed while the loop runs
        stops: list[int | str] = []
        offsets: dict[str, Expr] = {}  # int d = e + v, declared in a qualifying body

        def safe(expr: Expr, names: set[str]) -> bool:
            match expr:
                case IntLit(value):
                    return type(value) is int
                case VarRef(name):
                    return name in names
                case Binary("+" | "-" | "*", left, right):
                    return safe(left, names) and safe(right, names)
            return False

        def idle(body: list[Stmt], bound: set[str]) -> bool:
            here: set[str] = set()
            for stmt in body:
                match stmt:
                    case RuntimeCall("runtime::grid_sync"):
                        pass
                    case Declare(d, "int", Binary("+", e, VarRef(u))) if u == v and safe(e, before):
                        offsets[d] = e
                        here.add(d)
                    case ForLoop(_, VarRef(u), IntLit(b)) if u == v:
                        stops.append(b)  # empty once v >= b
                    case ForLoop(_, VarRef(d), IntLit(b)) if d in here:
                        stops.append(f"{b} - {_expr_src(offsets[d], self, prec=2)}")
                    case ForLoop(u, start, _, _, inner) if safe(start, bound) and idle(inner, bound | {u}):
                        pass
                    case _:
                        return False
            return True

        if not idle(loop.body, before | {v}) or not stops:
            return loop.bound.value
        if all(type(s) is int for s in stops):
            return min(loop.bound.value, max(stops))
        idle_from = stops[0] if len(stops) == 1 else f"max({', '.join(map(str, stops))})"
        return f"min({loop.bound.value}, {idle_from})"

    def block(self, stmts: list[Stmt], depth: int, out: list[str]) -> None:
        outside = set(self.outside)  # a declaration is in scope until its block ends
        for stmt in stmts:
            _stmt_src(stmt, depth, out, self)
        out.append("    " * depth + "pass")  # a block may print nothing
        self.outside = outside


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
            w.number(left), w.number(right)
            if op == "%":
                if w.is_float(left) or w.is_float(right):
                    raise InterpError("% with a float operand")
                if isinstance(right, IntLit) and type(d := right.value) is int and d > 0:  # inline
                    return f"(_m % {d} if (_m := {_expr_src(left, w)}) >= 0 else -(-_m % {d}))"
                return f"_mod({_expr_src(left, w)}, {_expr_src(right, w)})"
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
                arg_src = "".join(f", {_expr_src(w.number(a), w)}" for a in args)
                return f"_alloc({alloc_name or name!r}{arg_src})"
            raise InterpError(f"runtime call {name} does not produce a value")
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_src(stmt: Stmt, depth: int, out: list[str], w: _Walk) -> None:
    pad = "    " * depth
    match stmt:
        case Declare(name, _, init):
            w.outside.discard(name)
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
            value_src, k = _expr_src(w.number(value), w), w.inline(base, index)
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
            stop = w.stop(stmt)
            w.outside.discard(var)
            v = w.local(var)
            out.append(f"{pad}{v} = {start_src}")
            if isinstance(stop, str):  # computed once, before the loop
                out.append(f"{pad}_t = {stop}")
                stop = "_t"
            # range alone would do; this test spares the many empty grid-stride loops building one
            out.append(f"{pad}if {v} < {stop}:")
            out.append(f"{pad}    for {v} in range({v}, {stop}, {step.value}):")
            w.block(body, depth + 2, out)
            w.outside.add(var)
        case IfElse(cond, then_body, else_body):
            out.append(f"{pad}if {_expr_src(cond, w)}:")
            w.block(then_body, depth + 1, out)
            if else_body is not None:
                out.append(f"{pad}else:")
                w.block(else_body, depth + 1, out)
        case RuntimeCall(name, args):
            if name in _COPIES:
                w.number(args[2])
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
