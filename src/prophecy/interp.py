"""Reference interpreter for second-stage programs.

Executes a recorded program directly, standing in for a C toolchain and a
GPU: device allocations become host allocations, memory-transfer calls
become buffer copies, and ``grid_sync`` is a no-op.  The recorded block/
thread grid is just a pair of loops, so "GPU" code runs by iterating the
(block, thread) pairs, less those that provably do nothing (see below), as
idle threads on a GPU cost next to nothing.

Float values use genuine 32-bit arithmetic (numpy scalars), matching the
DSLs' float element type; integers are Python ints.  A buffer's elements are
a Python list of ``np.float32`` scalars, with ``None`` where nothing wrote:
a store coerces its value as a float32 array would, a copy carries the
``None`` along rather than legitimizing uninitialized data, and an output
reads unwritten elements as 0.0.  Out-of-bounds indexing and reading an
element that holds ``None`` are fatal, with the offending location in the
message.

Each call prints the program as one Python function, walking it as
``emit_c`` does (``_expr_src``/``_stmt_src`` mirror ``_expr_text``/
``_stmt_lines``), and runs it.  Variables are locals named by slot (``v3``),
and every declaration gives its variable a value.  As in C, a declared
variable is in scope from the end of its value to the end of its block, and
a loop variable in its loop's body only; a read anywhere else, its own value
included, is an InterpError.  What C's types refuse is refused when the
program is printed, and three rules give every access one inline form: a
``float*`` holds only a buffer (an allocation or a ``float*`` variable);
only a ``float*`` variable is indexed; and an index is an int, where a
comparison is C's int, 0 or 1 (``int(...)``; an ``if`` tests it bare).  A
pointer's elements and size stay in locals (``V3 N3``), set on entry and
after each value it is given.  An access evaluates its index, then tests its
bounds, and a store then its value.  As in C, an int variable holds only
ints (``_int``), a float variable given an int holds it as a float32, and
``%`` truncates toward zero: inline with one sign test for a positive
int-literal divisor, through ``_mod`` otherwise, where a zero divisor is an
InterpError.  Also refused when printed: a pointer (a ``float*`` variable or
an allocation) as an operand, an index, a stored element, an ``int`` or
``float`` variable's value, a loop start or a copy or allocation size; a
number as a copy's source or destination; and a float operand of ``%``.

A ``ForLoop`` is counted, so it runs as a ``range`` loop; as in C, its
variable is never assigned.  The range stops early, at a value computed
once before the loop, when the later iterations provably do nothing: when
each statement of the body for loop variable ``v`` is
  (a) ``grid_sync``;
  (b) a loop starting at ``v``, or at an ``int d = e + v`` declared before it
      in the same body, so empty once ``v`` reaches its bound (less ``e``),
      where ``e`` is built of int literals, ``+ - *``, enclosing loop
      variables and int parameters that nothing assigns, so it can neither
      raise nor change while the loop runs (the body of a loop in (b) is not
      checked);
  (c) a loop whose start is built the same way from those, ``v`` and the
      loop variables in between, and whose own body holds only (a) to (d); or
  (d) such a declaration of ``d``, which nothing outside the loop can read.
So a skipped iteration would have stored, copied, allocated and raised
nothing.  On a grid larger than its data, an einsum kernel with two output
indices runs over the data's cells only; one with a single index (a flat
thread id) still visits every block, with no thread past the data.
"""

import numbers
from typing import Any, Mapping

import numpy as np

from .second_stage import (
    _ELEM_BYTES, ArrayIndex, Assign, Binary, Declare, Expr, FloatLit, ForLoop, IfElse, IntLit,
    RuntimeCall, RuntimeCallExpr, SecondStageProgram, Stmt, VarRef, _expr_text, iter_stmts,
)

_f32 = np.float32
_BINOPS = {"<": 0, "<=": 0, ">": 0, ">=": 0, "+": 1, "-": 1, "*": 2}  # binding strength; % prints atomic
_TRACK = "V{0}, N{0} = v{0}.values, v{0}.size"  # the elements and size of pointer slot {0}


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


def _in_bounds(buf: Buffer, i: int) -> None:
    if i < 0 or i >= buf.size:
        raise InterpError(f"index {i} out of bounds for {buf.name} of size {buf.size}")


def _at(buf: Buffer, i: int) -> Any:
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
        self.ahead = set(self.outside)  # not declared yet
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
            if name in self.ahead:
                raise InterpError(f"variable {name} is not yet declared")
            raise InterpError(f"variable {name} is used outside its block")
        return f"v{self.slots[name]}"

    def element(self, base: Expr, index: Expr) -> tuple[int, str]:
        """The slot of ``base`` and the source of ``index``: C indexes a float* by an int."""
        _expr_src(base, self)  # in scope, and its own refusal first: pointer arithmetic, say
        if not (isinstance(base, VarRef) and self.kinds[base.name] == "float*"):
            raise InterpError(f"{_expr_text(base, top=True)} is indexed but is no float* variable")
        index_src = _expr_src(index, self)
        if self.is_float(self.number(index)):
            raise InterpError(f"index {_expr_text(index, top=True)} into {base.name} is a float")
        return self.slots[base.name], index_src

    def is_pointer(self, expr: Expr) -> bool:
        """A ``float*`` in C: an allocation or a ``float*`` variable."""
        return isinstance(expr, RuntimeCallExpr) or (
            isinstance(expr, VarRef) and self.kinds.get(expr.name) == "float*")

    def is_float(self, expr: Expr) -> bool:
        """A float literal or variable, an ``IntLit`` holding no int, a load, or arithmetic on
        one: no index, nor ``%``'s.  Any other printed number is a Python int (see ``stored``)."""
        match expr:
            case Binary("+" | "-" | "*" | "%", left, right):
                return self.is_float(left) or self.is_float(right)
            case VarRef(name):
                return self.kinds.get(name) == "float"
            case IntLit(value):
                return type(value) is not int
        return isinstance(expr, (FloatLit, ArrayIndex))

    def number(self, expr: Expr, holder: str = "") -> Expr:
        """``expr`` where C wants a number (``holder``'s value, say): never a pointer, that is
        an allocation or a ``float*`` variable in scope (out of scope, ``local`` refuses it)."""
        if self.is_pointer(expr) and expr.name not in self.outside:
            raise InterpError(f"{holder} cannot hold a buffer" if holder
                              else f"pointer {expr.name} used as a number")
        return expr

    def stored(self, name: str, expr: Expr, src: str) -> str:
        """The source ``src`` of ``expr`` as variable ``name`` holds it: C converts a number to
        an ``int`` or ``float``, refusing a pointer there, and a number in a ``float*``."""
        if (kind := self.kinds.get(name)) == "float*" and not self.is_pointer(expr):
            raise InterpError(f"float* {name} cannot hold a number")
        if kind in ("int", "float"):
            self.number(expr, f"{kind} {name}")
        if kind == "int":
            return f"_int({src}, {name!r})" if self.is_float(expr) else src
        return f"_f32({src})" if kind == "float" and not self.is_float(expr) else src

    def stop(self, loop: ForLoop) -> int | str:
        """Where ``loop``'s range stops: its bound, or before it when every later iteration
        provably does nothing (see the module docstring), as a literal or as the source of
        a value computed once before the loop."""
        before = (self.loops - self.outside) | self.fixed_params  # fixed while the loop runs
        stops: list[int | str] = []
        if not self.idle(loop.body, loop.var, before, before | {loop.var}, stops) or not stops:
            return loop.bound.value
        if all(type(s) is int for s in stops):
            return min(loop.bound.value, max(stops))
        idle_from = stops[0] if len(stops) == 1 else f"max({', '.join(map(str, stops))})"
        return f"min({loop.bound.value}, {idle_from})"

    def idle(self, body: list[Stmt], v: str, before: set, bound: set, stops: list) -> bool:
        """Whether ``body``, in loop ``v``, holds only (a) to (d); adds where (b) loops empty."""
        offsets: dict[str, Expr] = {}  # int d = e + v, declared in this body
        for stmt in body:
            match stmt:
                case RuntimeCall("runtime::grid_sync"):
                    pass
                case Declare(d, "int", Binary("+", e, VarRef(u))) if u == v and _safe(e, before):
                    offsets[d] = e
                case ForLoop(_, VarRef(u), IntLit(b)) if u == v:
                    stops.append(b)  # empty once v >= b
                case ForLoop(_, VarRef(d), IntLit(b)) if d in offsets:
                    stops.append(f"{b} - {_expr_src(offsets[d], self, prec=2)}")
                case ForLoop(u, start, _, _, inner) if _safe(start, bound):
                    if not self.idle(inner, v, before, bound | {u}, stops):
                        return False
                case _:
                    return False
        return True

    def block(self, stmts: list[Stmt], depth: int, out: list[str]) -> None:
        outside = set(self.outside)  # a declaration is in scope until its block ends
        for stmt in stmts:
            _stmt_src(stmt, depth, out, self)
        out.append("    " * depth + "pass")  # a block may print nothing
        self.outside = outside


def _safe(expr: Expr, names: set[str]) -> bool:
    """Built of int literals, ``+ - *`` and ``names``, so it can neither raise nor change."""
    match expr:
        case IntLit(value):
            return type(value) is int
        case VarRef(name):
            return name in names
        case Binary("+" | "-" | "*", left, right):
            return _safe(left, names) and _safe(right, names)
    return False


def _expr_src(expr: Expr, w: _Walk, alloc_name: str | None = None, prec: int = 0,
              cond: bool = False) -> str:
    """The source of ``expr``; with ``cond``, an ``if`` condition, which tests a comparison
    bare where anything else takes it as C's int, 0 or 1."""
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
                if isinstance(right, IntLit) and (d := right.value) > 0:  # inline
                    return f"(_m % {d} if (_m := {_expr_src(left, w)}) >= 0 else -(-_m % {d}))"
                return f"_mod({_expr_src(left, w)}, {_expr_src(right, w)})"
            if op not in _BINOPS:
                raise InterpError(f"unknown binary operator {op!r}")
            p = _BINOPS[op]  # parentheses only where Python would group otherwise
            text = f"{_expr_src(left, w, prec=p + (p == 0))} {op} {_expr_src(right, w, prec=p + 1)}"
            if p == 0 and not cond:
                return f"int({text})"
            return text if p >= prec else f"({text})"
        case ArrayIndex(base, index):
            k, index_src = w.element(base, index)
            return (f"(_v if 0 <= (_i := {index_src}) < N{k} and "
                    f"(_v := V{k}[_i]) is not None else _at(v{k}, _i))")
        case RuntimeCallExpr(name, (size,)):  # an allocation
            return f"_alloc({alloc_name or name!r}, {_expr_src(w.number(size), w)})"
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_src(stmt: Stmt, depth: int, out: list[str], w: _Walk) -> None:
    pad = "    " * depth
    match stmt:
        case Declare(name, _, value) | Assign(VarRef(name), value):
            declared = isinstance(stmt, Declare)  # a declared allocation takes the variable's name
            value_src = w.stored(name, value, _expr_src(value, w, name if declared else None))
            if declared:
                w.outside.discard(name)  # in scope from the end of its value
                w.ahead.discard(name)
            out.append(f"{pad}{w.local(name)} = {value_src}")
            if w.kinds[name] == "float*":
                out.append(pad + _TRACK.format(w.slots[name]))
        case Assign(ArrayIndex(base, index), value):  # index, bounds, then the value
            value_src = _expr_src(w.number(value), w)
            k, index_src = w.element(base, index)
            out.append(f"{pad}_s = {index_src}")
            out.append(f"{pad}if not 0 <= _s < N{k}: _in_bounds(v{k}, _s)")
            out.append(f"{pad}V{k}[_s] = _v if type(_v := {value_src}) is _f32 else _f32(_v)")
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
            out.append(f"{pad}if {_expr_src(cond, w, cond=True)}:")
            w.block(then_body, depth + 1, out)
            if else_body is not None:
                out.append(f"{pad}else:")
                w.block(else_body, depth + 1, out)
        case RuntimeCall(name, (dst, src, size)):  # a copy; grid_sync does nothing
            arg_src = ", ".join(_expr_src(a, w) for a in (dst, src, w.number(size)))
            for a in (dst, src):
                if not w.is_pointer(a):
                    raise InterpError(f"{name}: {_expr_text(a, top=True)} is no pointer")
            out.append(f"{pad}_copy({name!r}, {arg_src})")
        case RuntimeCall():
            pass
        case _:
            raise TypeError(f"not a statement: {stmt!r}")


def interpret_program(program: SecondStageProgram, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Run a recorded program on named inputs; outputs are final parameter values.

    Every pointer parameter must be covered by an input array (it arrives
    fully initialized and its final contents are returned under the same
    name), every int parameter by an integer and every float parameter by a
    real number (its final value is returned); any other input is an
    InterpError naming the parameter.  What C's types refuse is an
    InterpError when the program is printed, before any input is looked at.
    A program nested deeper than Python compiles (20 loops, about 200
    parentheses) is an InterpError.
    """
    w = _Walk(program)
    # the function's lines, from the locals of each pointer parameter
    body = ["    " + _TRACK.format(k) for k, (_, kind) in enumerate(program.params)
            if kind == "float*"]
    w.block(program.body, 1, body)
    args = []
    for name, kind in program.params:
        if name not in inputs:
            raise InterpError(f"missing input for parameter {name!r}")
        value = inputs[name]
        if kind == "float*":
            if np.ndim(value) == 0:  # None, or a bare scalar
                raise InterpError(f"parameter {name!r} needs an array, got {type(value).__name__}")
            args.append(Buffer(list(np.asarray(value, dtype=np.float32).ravel()), name))
        elif not isinstance(value, numbers.Integral if kind == "int" else numbers.Real):
            need = "an integer" if kind == "int" else "a number"
            raise InterpError(f"parameter {name!r} needs {need}, got {value!r}")
        else:
            args.append(int(value) if kind == "int" else np.float32(value))
    params = [f"v{k}" for k in range(len(args))] + [f"{c}={c}" for c in w.constants]
    source = "\n".join([f"def _program({', '.join(params)}):", *body, f"    {w.result}"])
    namespace = dict(w.constants)
    try:
        exec(compile(source, f"<{program.name}>", "exec"), globals(), namespace)
    except SyntaxError as exc:
        raise InterpError(f"program {program.name} is nested too deeply: {exc.msg}") from None
    with np.errstate(all="ignore"):  # as in C, a float overflows to inf without a word
        final = namespace["_program"](*args)
    return {name: np.array([0.0 if x is None else x for x in value.values], np.float32)
            if isinstance(value, Buffer) else value
            for (name, _), value in zip(program.params, final)}
