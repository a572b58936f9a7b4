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
message.  So is a copy or allocation whose byte count is not a whole number
of elements: stricter than C, whose copy of 18 bytes into a 16-byte buffer
writes past it.  So is an allocation of 0 bytes, though C's ``malloc(0)``
faults only when its pointer is used.

Each call prints the program as one Python function, walking it as
``emit_c`` does (``_expr_src``/``_stmt_src`` mirror ``_expr_text``/
``_stmt_lines`` and, like them, dispatch on each node's exact type), and
runs it.  Variables are locals named by slot (``v3``).
A program is typed when it is built (see second_stage): only a ``float*``
variable is indexed, it holds a buffer, and an index is an int, where a
comparison is C's int, 0 or 1 (``int(...)``; an ``if`` tests it bare).  A
pointer's elements stay in one local list (``V3``), set on entry and after
each value it is given.  A checked access evaluates its index (bound to ``_i``
in a read, ``_s`` in a store, unless a variable or literal), then tests it
against ``len(V3)``, and a store then its value.  A proven access drops the
bounds test, as its index's interval (below) lies inside the buffer, whose
size is known if nothing assigns the variable, a pointer parameter or one
declared from a literal allocation; the index cannot raise, so C's order
holds.  A proven read of a *filled* buffer, which holds no ``None``, is bare
(``V3[i]``).  Until a top-level statement gives a ``float*`` variable
another's buffer (then none is, from there on), a pointer parameter that
nothing assigns is filled on entry, and a buffer of known size once a
top-level statement writes it whole: copies its size from a filled buffer, or
stores at the row-major index (``flat_index``'s) of a nest of loops from 0 by
1 to bounds ``>= 1`` that multiply to its size, each, and the store or copy,
at the top level of the one before.  A top-level statement that copies into a
buffer from an unfilled one (or one that it empties so) empties it, from its
start: where it was printed as filled, the statement prints again.
An interval ``(lo, hi)`` is known for an int literal; a loop variable whose
start has one (the start's ``lo`` to the stop less 1, or the bound where the
stop is computed: nothing assigns it and its step is at least 1); an ``int``
declared from one that nothing assigns; ``+ - *`` of two; and ``e % m``,
``m`` an int literal ``> 0`` and ``lo(e) >= 0`` (0 to ``min(hi(e), m -
1)``); never one that leaves C's int at a node, so that C's wrapping cannot
break a proof.  As in C, an int variable holds only ints (``_int``), a float
variable or an element given an int (not ``is_float``) holds it as a
float32, and ``%`` truncates toward zero: as Python's ``%``, in parentheses,
where its interval is known; through ``_mod`` otherwise, where a zero
divisor is an InterpError.

A ``ForLoop`` is counted, so it runs as one ``for v3 in range(...)`` line;
as in C, its variable is never assigned, nor read after the loop.  The range
stops early, at a value computed once before the loop (``_t``, which cannot
raise), when the later iterations provably do nothing: when each statement
of the body for loop variable ``v`` is
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
thread id) still visits every block, with no thread past the data.  A loop
whose start's interval lies in ``[stop - step, stop - 1]`` (a literal stop)
runs once, and prints as ``v3 = START`` with its body one level up.  Where
the loops might run more than ``MAX_LOOP_ITERATIONS`` iterations in all, by
their intervals and bounds, each prints as C runs it and charges its range's
length to a budget as it starts; going over is an InterpError naming it.
"""

import numbers
from typing import Any, Mapping

import numpy as np

from .second_stage import (
    _ELEM_BYTES, ArrayIndex, Assign, Binary, Declare, Expr, FloatLit, ForLoop, IfElse, IntLit,
    RuntimeCall, RuntimeCallExpr, SecondStageProgram, Stmt, VarRef, declarations, is_float,
)

_f32 = np.float32
_BINOPS = {"<": 0, "<=": 0, ">": 0, ">=": 0, "+": 1, "-": 1, "*": 2}  # binding strength; % is
# atomic, a call or in parentheses
_TRACK = "V{0} = v{0}.values"  # the elements of pointer slot {0}, as many as its size
MAX_LOOP_ITERATIONS = 2**24  # the budget on the iterations of a program's loops, all entries


class InterpError(Exception):
    pass


class Buffer:
    __slots__ = ("values", "name")

    def __init__(self, values: list, name: str):
        self.values = values  # np.float32 scalars, None where nothing wrote; as many as its size
        self.name = name


def _alloc(name: str, nbytes: Any) -> Buffer:
    count, part = divmod(int(nbytes), _ELEM_BYTES)
    if count <= 0 or part:
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
    if not 0 <= i < len(buf.values):
        raise InterpError(f"index {i} out of bounds for {buf.name} of size {len(buf.values)}")


def _at(buf: Buffer, i: int) -> Any:
    _in_bounds(buf, i)
    if (value := buf.values[i]) is None:
        raise InterpError(f"uninitialized read at {buf.name}[{i}]")
    return value


def _copy(name: str, dst: Buffer, src: Buffer, nbytes: Any) -> None:
    count, part = divmod(int(nbytes), _ELEM_BYTES)
    if count < 0:
        raise InterpError(f"{name}: copying {nbytes} bytes, a negative size")
    if part:
        raise InterpError(f"{name}: copying {nbytes} bytes, not a whole number of elements")
    if count > len(dst.values) or count > len(src.values):
        raise InterpError(f"{name}: copying {count} elements between {src.name}"
                          f" ({len(src.values)}) and {dst.name} ({len(dst.values)})")
    dst.values[:count] = src.values[:count]


class _Walk:
    """What printing one program needs beyond the node at hand."""

    def __init__(self, program: SecondStageProgram, args: list, charged: bool = False):
        self.kinds, _, self.assigned = declarations(program)
        self.slots = {name: k for k, name in enumerate(self.kinds)}
        self.fixed_params = {name for name, kind in program.params  # int, and never assigned
                             if kind == "int" and name not in self.assigned}
        self.result = "return (" + "".join(f"v{k}, " for k, (_, kind) in enumerate(program.params)
                                           if kind != "float*") + ")"  # the scalars
        self.constants: dict[str, Any] = {}
        self.ranges: dict[str, tuple[int, int]] = {}  # int variables' intervals, where known
        # the elements of the one buffer a variable holds: a parameter's, a literal allocation's
        self.sizes = {name: len(arg.values) for (name, kind), arg in zip(program.params, args)
                      if kind == "float*" and name not in self.assigned}
        self.filled = set(self.sizes)  # hold no None: the parameters, which nothing assigns
        self.one_name, self.charged = True, charged  # no buffer has two names; ``_b`` is charged
        self.copies, self.aliased = [], False  # in the top-level statement being printed
        self.reach, self.iterations = 1, 0  # at most: the enclosing loops' iterations, all's

    def stored(self, name: str | None, expr: Expr, src: str) -> str:
        """The source ``src`` of ``expr`` as variable ``name``, or an element where None, holds
        it: C converts a number to an ``int`` or ``float``."""
        if (kind := "float" if name is None else self.kinds[name]) == "int":
            return f"_int({src}, {name!r})" if is_float(expr, self.kinds) else src
        return f"_f32({src})" if kind == "float" and not is_float(expr, self.kinds) else src

    def stop(self, loop: ForLoop, loops: frozenset[str]) -> int | str:
        """Where ``loop``'s range stops, inside ``loops``: its bound, or before it when every
        later iteration provably does nothing (see the module docstring), as a literal or as
        the source of a value computed once before the loop."""
        before = loops | self.fixed_params  # fixed while the loop runs
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

    def block(self, stmts: list[Stmt], depth: int, out: list[str], loops: frozenset[str]) -> None:
        printed = len(out)
        for stmt in stmts:  # inside the loops of variables ``loops``
            _stmt_src(stmt, depth, out, self, loops)
        if len(out) == printed:  # a block may print nothing
            out.append("    " * depth + "pass")

    def top(self, stmt: Stmt, out: list[str]) -> None:
        """Print the top-level ``stmt`` and keep the filled buffers (see the module docstring)."""
        before, printed, iterations = self.filled, len(out), self.iterations
        self.copies, self.aliased = [], False  # as ``_stmt_src`` prints them
        _stmt_src(stmt, 1, out, self, frozenset())
        emptied: set[str] = set()  # copied into from an unfilled buffer, or from one so emptied
        for _ in self.copies:  # each pass follows the copies one step further
            emptied = {d.name for d, s, _ in self.copies if type(d) is VarRef and (
                type(s) is not VarRef or s.name not in before or s.name in emptied)}
        self.one_name &= not self.aliased  # else a buffer may have two names from here on
        if before and (self.aliased or not emptied.isdisjoint(before)):
            self.filled, self.iterations = before - emptied if self.one_name else set(), iterations
            del out[printed:]  # printed as if they held no None: print it again
            _stmt_src(stmt, 1, out, self, frozenset())
        if self.one_name and type(stmt) in (ForLoop, RuntimeCall):
            self.whole(stmt, (), 1, written := set())
            if written:
                self.filled = self.filled.union(written) - emptied

    def whole(self, stmt: Stmt, nest: tuple[tuple[str, int], ...], count: int,
              written: set[str]) -> None:
        """Add to ``written`` the buffers that the top-level ``stmt`` writes whole, inside ``nest``,
        loops of ``count`` iterations in all (so ``stop`` trims none of them)."""
        kind = type(stmt)
        if kind is RuntimeCall and len(stmt.args) == 3:
            dst, src, n = stmt.args
            if (type(dst) is type(src) is VarRef and type(n) is IntLit and src.name in self.filled
                    and n.value == self.sizes.get(dst.name, 0) * _ELEM_BYTES):
                written.add(dst.name)
        elif kind is ForLoop:
            start, bound = stmt.start, stmt.bound.value
            if type(start) is IntLit and start.value == 0 and stmt.step.value == 1 and bound > 0:
                for inner in stmt.body:
                    self.whole(inner, nest + ((stmt.var, bound),), count * bound, written)
        elif (kind is Assign and nest and type(target := stmt.target) is ArrayIndex
              and self.sizes.get(target.base.name) == count):
            index = target.index
            for var, bound in nest[:-1]:  # v0 * s0 + (v1 * s1 + ... + vn), as ``flat_index``
                count //= bound  # the stride of ``var``
                match index:
                    case Binary("+", Binary("*", VarRef(v), IntLit(s)), rest) if (
                            (v, s) == (var, count)):
                        index = rest
                    case _:
                        return
            if type(index) is VarRef and index.name == nest[-1][0]:
                written.add(target.base.name)


def _safe(expr: Expr, names: set[str]) -> bool:
    """Built of int literals, ``+ - *`` and ``names``, so it can neither raise nor change."""
    match expr:
        case VarRef(name):
            return name in names
        case Binary("+" | "-" | "*", left, right):
            return _safe(left, names) and _safe(right, names)
    return type(expr) is IntLit


def _interval(expr: Expr, w: _Walk) -> tuple[int, int] | None:
    """Bounds ``(lo, hi)`` on the int ``expr``, or None (see the module docstring)."""
    match expr:
        case IntLit(value):
            return value, value
        case VarRef(name):
            return w.ranges.get(name)
        case Binary("%", left, IntLit(m)) if m > 0 and (a := _interval(left, w)) and a[0] >= 0:
            return 0, min(a[1], m - 1)
        case Binary("+" | "-" | "*" as op, p, q) if (a := _interval(p, w)) and (b := _interval(q, w)):
            ends = [x + y if op == "+" else x - y if op == "-" else x * y for x in a for y in b]
            if -2**31 <= min(ends) and max(ends) < 2**31:  # inside C's int
                return min(ends), max(ends)
    return None


def _expr_src(expr: Expr, w: _Walk, alloc_name: str | None = None, prec: int = 0,
              cond: bool = False) -> str:
    """The source of ``expr``; with ``cond``, an ``if`` condition, which tests a comparison
    bare where anything else takes it as C's int, 0 or 1."""
    kind = type(expr)
    if kind is VarRef:
        return f"v{w.slots[expr.name]}"
    if kind is IntLit:
        return repr(expr.value)
    if kind is Binary:
        op, left, right = expr.op, expr.left, expr.right
        if op == "%":  # Python's % where it agrees with C's
            if _interval(expr, w) is not None:
                return f"({_expr_src(left, w, prec=2)} % {right.value})"
            return f"_mod({_expr_src(left, w)}, {_expr_src(right, w)})"
        p = _BINOPS[op]  # parentheses only where Python would group otherwise
        text = f"{_expr_src(left, w, prec=p + (p == 0))} {op} {_expr_src(right, w, prec=p + 1)}"
        if p == 0 and not cond:
            return f"int({text})"
        return text if p >= prec else f"({text})"
    if kind is ArrayIndex:  # of a float* variable
        k = w.slots[expr.base.name]
        i, bind = _index_src(expr, w, "_i")
        if bind is None:  # proven: no bounds test, and no None test where the buffer is filled
            return (f"V{k}[{i}]" if expr.base.name in w.filled
                    else f"(_v if (_v := V{k}[{i}]) is not None else _at(v{k}, {i}))")
        return f"(_v if 0 <= {bind} < len(V{k}) and (_v := V{k}[{i}]) is not None else _at(v{k}, {i}))"
    if kind is FloatLit:
        name = f"_c{len(w.constants)}"
        w.constants[name] = np.float32(expr.value)
        return name
    # what is left is an allocation
    return f"_alloc({alloc_name or expr.name!r}, {_expr_src(expr.args[0], w)})"


def _index_src(access: ArrayIndex, w: _Walk, name: str) -> tuple[str, str | None]:
    """How ``access`` uses its index, and how its bounds test evaluates it (a computed one bound
    to ``name``), or None where the index provably lies inside the buffer."""
    src = _expr_src(index := access.index, w)
    if (r := _interval(index, w)) and 0 <= r[0] and r[1] < w.sizes.get(access.base.name, 0):
        return src, None
    return (src, src) if type(index) in (VarRef, IntLit) else (name, f"({name} := {src})")


def _stmt_src(stmt: Stmt, depth: int, out: list[str], w: _Walk, loops: frozenset[str]) -> None:
    pad = "    " * depth
    kind = type(stmt)
    if kind is Assign and type(target := stmt.target) is ArrayIndex:  # index, bounds, then the value
        value_src = w.stored(None, stmt.value, _expr_src(stmt.value, w))
        k = w.slots[target.base.name]
        i, bind = _index_src(target, w, "_s")
        if bind is not None:  # else proven, and the index cannot raise, so C's order holds
            out.append(f"{pad}if not 0 <= {bind} < len(V{k}): _in_bounds(v{k}, {i})")
        out.append(f"{pad}V{k}[{i}] = {value_src}")
    elif kind is Assign or kind is Declare:  # a declared allocation takes the variable's name
        name, value = (stmt.target.name, stmt.value) if kind is Assign else (stmt.name, stmt.init)
        value_src = w.stored(name, value, _expr_src(value, w, name if kind is Declare else None))
        out.append(f"{pad}v{w.slots[name]} = {value_src}")
        if kind is Declare and name not in w.assigned:  # a literal allocation's size, an interval
            if type(value) is RuntimeCallExpr and type(value.args[0]) is IntLit:
                w.sizes[name] = value.args[0].value // _ELEM_BYTES
            elif w.kinds[name] == "int" and (r := _interval(value, w)) is not None:
                w.ranges[name] = r
        if w.kinds[name] == "float*":
            out.append(pad + _TRACK.format(w.slots[name]))
            w.aliased |= type(value) is VarRef  # then the buffer has two names
    elif kind is ForLoop:
        var, k, bound, step = stmt.var, w.slots[stmt.var], stmt.bound.value, stmt.step.value
        start_src = w.stored(var, stmt.start, _expr_src(stmt.start, w))
        stop = bound if w.charged else w.stop(stmt, loops)  # a charged loop runs as in C
        if (start := _interval(stmt.start, w)) is not None:  # never assigned; a step of at least 1
            w.ranges[var] = start[0], (stop if type(stop) is int else bound) - 1
        reach = w.reach  # how often the loop is entered, at most; then its body
        w.reach *= max(0, -(-(bound - start[0]) // step)) if start else MAX_LOOP_ITERATIONS + 1
        w.iterations += w.reach
        if (start and type(stop) is int and stop - step <= start[0] and start[1] < stop
                and not w.charged):  # it runs once
            out.append(f"{pad}v{k} = {start_src}")
            w.block(stmt.body, depth, out, loops | {var})
        else:
            if isinstance(stop, str):  # computed once, before the loop; it cannot raise
                out.append(f"{pad}_t = {stop}")
                stop = "_t"
            loop_range = f"range({start_src}, {stop}{'' if step == 1 else f', {step}'})"
            if w.charged:  # its length, from the budget, before it starts
                out.append(f"{pad}_b -= len(_r := {loop_range})")
                out.append(f"{pad}if _b < 0: raise InterpError('loop over {var} runs past the"
                           f" budget of {MAX_LOOP_ITERATIONS} iterations')")
                loop_range = "_r"
            out.append(f"{pad}for v{k} in {loop_range}:")
            w.block(stmt.body, depth + 1, out, loops | {var})
        w.reach = reach
    elif kind is IfElse:
        out.append(f"{pad}if {_expr_src(stmt.cond, w, cond=True)}:")
        w.block(stmt.then_body, depth + 1, out, loops)
        if stmt.else_body is not None:
            out.append(f"{pad}else:")
            w.block(stmt.else_body, depth + 1, out, loops)
    elif len(stmt.args) == 3:  # a copy; grid_sync does nothing
        arg_src = ", ".join(_expr_src(a, w) for a in stmt.args)
        out.append(f"{pad}_copy({stmt.name!r}, {arg_src})")
        w.copies.append(stmt.args)


def interpret_program(program: SecondStageProgram, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Run a recorded program on named inputs; outputs are the caller's buffers and scalars.

    Every pointer parameter must be covered by an input array (it arrives
    fully initialized, and the final contents of that buffer are returned
    under the same name: as in C, the caller keeps its own buffer, whatever
    the parameter points to later), every int parameter by an integer and
    every float parameter by a real number (its final value is returned);
    any other input is an InterpError naming the parameter.  A program
    nested deeper than Python compiles (20 loops, about 200 parentheses) is
    an InterpError.
    """
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
    for charged in (False, True):  # charge the loops only where they might pass the budget
        w = _Walk(program, args, charged)
        # the function's lines, from the locals of each pointer parameter
        body = ["    " + _TRACK.format(k) for k, (_, kind) in enumerate(program.params)
                if kind == "float*"] + [f"    _b = {MAX_LOOP_ITERATIONS}"] * charged
        for stmt in program.body:
            w.top(stmt, body)
        if w.iterations <= MAX_LOOP_ITERATIONS:
            break
    params = [f"v{k}" for k in range(len(args))] + [f"{c}={c}" for c in w.constants]
    source = "\n".join([f"def _program({', '.join(params)}):", *body, f"    {w.result}"])
    namespace = dict(w.constants)
    try:
        exec(compile(source, f"<{program.name}>", "exec"), globals(), namespace)
    except SyntaxError as exc:
        raise InterpError(f"program {program.name} is nested too deeply: {exc.msg}") from None
    with np.errstate(all="ignore"):  # as in C, a float overflows to inf without a word
        scalars = iter(namespace["_program"](*args))
    return {name: np.array([0.0 if x is None else x for x in arg.values], np.float32)
            if kind == "float*" else next(scalars)
            for (name, kind), arg in zip(program.params, args)}
