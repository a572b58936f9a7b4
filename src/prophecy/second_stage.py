"""Recorded second-stage programs: AST, runtime-call registry, C-like emission.

A second-stage program is the artifact a first-stage (generator) run leaves
behind: declarations, assignments, loops, conditionals, and calls into a
small fixed runtime.  Programs are plain data — building them is the
recorder's job (see staging), executing them is the interpreter's (see
interp), and ``emit_c`` turns them into deterministic C-like text suitable
for golden-file comparison.  ``iter_stmts`` is the one walk over every
statement of a program in program order.

Expressions are frozen dataclasses with slots, built as ``core_lang``'s
nodes are (``_node.frozen_node``: each field written through its slot,
then the field check), so one node may sit in many places of a program.
Statements are mutable dataclasses with slots: the recorder appends to a
loop's or a branch's block while its body runs.

C's types are checked once, when a program is built: a node refuses what C
refuses of it alone, and ``SecondStageProgram`` walks the program in the
order the interpreter prints it (``_Types``: a value before its name enters
scope, a store's value before its index), so ``emit_c`` and the interpreter
see only typed programs, made of nodes alone.  Every walk here, ``emit_c``'s
too, dispatches on each node's exact type (``type(node) is C``), so a
subclass of a node is no node.  A refusal is a ``ValueError`` naming the
first fault; a program nested deeper than the walk's recursion can follow
(an expression about 1,000 deep) is one too, naming the nesting.  The walk
is stricter than C in three shapes: pointer arithmetic, an indexed
allocation, and one name declared in two blocks (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from ._node import frozen_node

# Each call's argument count, and whether it yields a pointer (an allocation) or is a statement.
RUNTIME_CALLS = {
    "runtime::malloc": (1, True), "runtime::memcpy": (3, False),
    "runtime::cuda_malloc": (1, True), "runtime::cudaMemcpyToDevice": (3, False),
    "runtime::cudaMemcpyToHost": (3, False), "runtime::grid_sync": (0, False),
}

RUNTIME_HEADER = '#include "runtime.h"'

_ELEM_BYTES = 4  # every buffer holds float32 elements; sizes passed to the runtime are bytes
_FLOAT_MAX = 2.0**128 - 2.0**103  # the least magnitude that rounds to inf in C's float


class UnknownRuntimeCall(Exception):
    def __init__(self, name: str):
        super().__init__(f"unknown runtime call name {name!r}")
        self.name = name


def _check_runtime_call(name: str, args: tuple, yields: bool) -> None:
    """Refuse what C's signature of ``name`` refuses, where a value is wanted or not."""
    if name not in RUNTIME_CALLS:
        raise UnknownRuntimeCall(name)
    arity, pointer = RUNTIME_CALLS[name]
    if pointer != yields:
        wrong = "does not produce a value" if yields else "is not a statement"
        raise ValueError(f"runtime call {name} {wrong}")
    if len(args) != arity:
        raise ValueError(f"runtime call {name} takes {arity} arguments, got {len(args)}")


def _check_kind(name: str, kind: str) -> None:
    if kind not in ("int", "float", "float*"):
        raise ValueError(f"variable {name} has kind {kind!r}, not int, float or float*")


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@frozen_node
class IntLit:
    value: int

    def __post_init__(self) -> None:
        if type(self.value) is not int:
            raise ValueError(f"integer literal is not an int: {self.value!r}")
        if not -2**31 <= self.value < 2**31:  # Python may refuse to print the value itself
            raise ValueError("integer literal is outside C's int")


@frozen_node
class FloatLit:
    value: float

    def __post_init__(self) -> None:
        if type(self.value) is not float:
            raise ValueError(f"float literal is not a float: {self.value!r}")
        if not abs(self.value) < _FLOAT_MAX:  # false for nan too
            fault = "is outside C's float" if math.isfinite(self.value) else "is not finite"
            raise ValueError(f"float literal {self.value!r} {fault}")


@frozen_node
class VarRef:
    name: str


@frozen_node
class Binary:
    op: str  # + - * % < <= > >=
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "%", "<", "<=", ">", ">="):
            raise ValueError(f"unknown binary operator {self.op!r}")


@frozen_node
class ArrayIndex:
    base: "Expr"
    index: "Expr"


@frozen_node
class RuntimeCallExpr:
    name: str
    args: tuple["Expr", ...]

    def __post_init__(self) -> None:
        _check_runtime_call(self.name, self.args, yields=True)


Expr = Union[IntLit, FloatLit, VarRef, Binary, ArrayIndex, RuntimeCallExpr]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Declare:
    name: str
    kind: str  # int | float | float*
    init: Expr

    def __post_init__(self) -> None:
        _check_kind(self.name, self.kind)


@dataclass(slots=True)
class Assign:
    target: Expr  # VarRef or ArrayIndex
    value: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.target, (VarRef, ArrayIndex)):
            raise ValueError("assignment target must be a variable or array element")


@dataclass(slots=True)
class ForLoop:
    """``for (int var = start; var < bound; var = var + step) { body }``."""

    var: str
    start: Expr
    bound: Expr
    step: Expr
    body: list["Stmt"]

    def __post_init__(self) -> None:
        if type(self.bound) is not IntLit:
            raise ValueError(f"loop bound must be an int literal, got {self.bound!r}")
        if type(self.step) is not IntLit or self.step.value < 1:
            raise ValueError(f"loop step must be an int literal of at least 1, got {self.step!r}")


@dataclass(slots=True)
class IfElse:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"] | None = None


@dataclass(slots=True)
class RuntimeCall:
    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        _check_runtime_call(self.name, self.args, yields=False)


Stmt = Union[Declare, Assign, ForLoop, IfElse, RuntimeCall]


def iter_stmts(stmts: Iterable[Stmt]) -> Iterator[Stmt]:
    """Every statement in ``stmts`` and in the blocks below them, in program order."""
    for stmt in stmts:
        yield stmt
        if type(stmt) is ForLoop:
            yield from iter_stmts(stmt.body)
        elif type(stmt) is IfElse:
            yield from iter_stmts(stmt.then_body + (stmt.else_body or []))


@dataclass
class SecondStageProgram:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, kind) in declaration order
    body: list[Stmt]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for param in self.params:
            _check_kind(*param)
        try:
            _Types(self).block(self.body)
        except RecursionError:  # caught once, here: the walk itself counts no depth
            raise ValueError(f"program {self.name} is nested too deeply for the type walk") from None


def is_float(expr: Expr, kinds: Mapping[str, str]) -> bool:
    """A float in C: a float literal or variable, a load, or arithmetic on one."""
    if type(expr) is Binary:
        return expr.op in "+-*%" and (is_float(expr.left, kinds) or is_float(expr.right, kinds))
    return type(expr) in (FloatLit, ArrayIndex) or (
        type(expr) is VarRef and kinds.get(expr.name) == "float")


def declarations(program: SecondStageProgram) -> tuple[dict[str, str], set[str], set[str]]:
    """Every variable's kind, parameters first, the loop variables and the variables assigned;
    a name declared twice or an assigned loop variable is a ``ValueError``."""
    stmts = list(iter_stmts(program.body))
    kinds: dict[str, str] = {}
    for name, kind in [*program.params, *[(s.var, "int") if type(s) is ForLoop else (s.name, s.kind)
                                           for s in stmts if type(s) in (ForLoop, Declare)]]:
        if name in kinds:
            raise ValueError(f"duplicate variable name {name!r}")
        kinds[name] = kind
    loops = {s.var for s in stmts if type(s) is ForLoop}
    assigned = {s.target.name for s in stmts if type(s) is Assign and type(s.target) is VarRef}
    if loops & assigned:
        raise ValueError(f"loop variable {min(loops & assigned)} is assigned")
    return kinds, loops, assigned


class _Types:
    """The walk: every name's kind, the loop variables, the names in scope and those declared."""

    def __init__(self, program: SecondStageProgram):
        self.kinds, self.loops, _ = declarations(program)
        self.seen, self.live = set(), {name for name, _ in program.params}

    def pointer(self, expr: Expr) -> bool:  # a float* in C: an allocation or a float* variable
        return type(expr) is RuntimeCallExpr or (
            type(expr) is VarRef and expr.name in self.live and self.kinds[expr.name] == "float*")

    def number(self, expr: Expr, holder: str = "") -> None:
        if self.pointer(expr):
            raise ValueError(f"{holder} cannot hold a buffer" if holder
                             else f"pointer {expr.name} used as a number")

    def held(self, name: str, value: Expr) -> None:
        self.expr(value)
        if (kind := self.kinds.get(name)) == "float*" and not self.pointer(value):
            raise ValueError(f"float* {name} cannot hold a number")
        if kind in ("int", "float"):
            self.number(value, f"{kind} {name}")

    def expr(self, expr: Expr) -> None:
        kind = type(expr)
        if kind is VarRef and (name := expr.name) not in self.live:
            raise ValueError(
                f"variable {name!r} is never declared" if name not in self.kinds
                else f"loop variable {name} is used outside its loop" if name in self.loops
                else f"variable {name} is used outside its block" if name in self.seen
                else f"variable {name} is not yet declared")
        if kind is Binary:
            left, right = expr.left, expr.right
            self.number(left)
            self.number(right)
            if expr.op == "%" and (is_float(left, self.kinds) or is_float(right, self.kinds)):
                raise ValueError("% with a float operand")
            self.expr(left)
            self.expr(right)
        elif kind is ArrayIndex:  # only a float* variable, indexed by an int
            self.expr(base := expr.base)
            if type(base) is not VarRef or self.kinds[base.name] != "float*":
                raise ValueError(f"{_expr_text(base, top=True)} is indexed but is no float* variable")
            self.expr(index := expr.index)
            self.number(index)
            if is_float(index, self.kinds):
                raise ValueError(f"index {_expr_text(index, top=True)} into {base.name} is a float")
        elif kind is RuntimeCallExpr:  # an allocation
            self.number(expr.args[0])
            self.expr(expr.args[0])
        elif kind is not VarRef and kind is not IntLit and kind is not FloatLit:
            raise ValueError(f"not an expression: {expr!r}")

    def block(self, stmts: list[Stmt]) -> None:
        live, self.live = self.live, set(self.live)  # a declaration ends with its block
        for stmt in stmts:
            kind = type(stmt)
            if kind is Declare or kind is ForLoop:
                name = stmt.name if kind is Declare else stmt.var
                self.held(name, stmt.init if kind is Declare else stmt.start)
                self.seen.add(name)
                self.live.add(name)
                if kind is ForLoop:
                    self.block(stmt.body)
                    self.live.discard(name)
            elif kind is Assign:  # to a variable, or a store: the value, then the element
                if type(stmt.target) is VarRef:
                    self.held(stmt.target.name, stmt.value)
                else:
                    self.number(stmt.value)
                    self.expr(stmt.value)
                self.expr(stmt.target)
            elif kind is IfElse:
                self.expr(stmt.cond)
                self.block(stmt.then_body)
                self.block(stmt.else_body or [])
            elif kind is not RuntimeCall:
                raise ValueError(f"not a statement: {stmt!r}")
            elif len(stmt.args) == 3:  # a copy, between pointers
                self.number(stmt.args[2])
                for arg in stmt.args:
                    self.expr(arg)
                for arg in stmt.args[:2]:
                    if not self.pointer(arg):
                        raise ValueError(f"{stmt.name}: {_expr_text(arg, top=True)} is no pointer")
        self.live = live


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------


def _expr_text(expr: Expr, top: bool = False) -> str:
    kind = type(expr)
    if kind is VarRef:
        return expr.name
    if kind is IntLit:  # C reads -2147483648 as minus the long 2147483648
        return str(expr.value) if expr.value != -2**31 else "(-2147483647 - 1)"
    if kind is Binary:
        text = f"{_expr_text(expr.left)} {expr.op} {_expr_text(expr.right)}"
        return text if top else f"({text})"
    if kind is ArrayIndex:
        return f"{_expr_text(expr.base)}[{_expr_text(expr.index, top=True)}]"
    if kind is FloatLit:
        return repr(expr.value)
    if kind is RuntimeCallExpr:
        return f"{expr.name}({', '.join(_expr_text(a, top=True) for a in expr.args)})"
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_lines(stmt: Stmt, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    kind = type(stmt)
    if kind is Assign:
        out.append(f"{pad}{_expr_text(stmt.target, top=True)} = {_expr_text(stmt.value, top=True)};")
    elif kind is Declare:
        out.append(f"{pad}{stmt.kind} {stmt.name} = {_expr_text(stmt.init, top=True)};")
    elif kind is ForLoop:
        var = stmt.var
        out.append(
            f"{pad}for (int {var} = {_expr_text(stmt.start, top=True)}; "
            f"{var} < {_expr_text(stmt.bound)}; {var} = {var} + {_expr_text(stmt.step)}) {{"
        )
        for inner in stmt.body:
            _stmt_lines(inner, depth + 1, out)
        out.append(f"{pad}}}")
    elif kind is IfElse:
        out.append(f"{pad}if ({_expr_text(stmt.cond, top=True)}) {{")
        for inner in stmt.then_body:
            _stmt_lines(inner, depth + 1, out)
        if stmt.else_body is not None:
            out.append(f"{pad}}} else {{")
            for inner in stmt.else_body:
                _stmt_lines(inner, depth + 1, out)
        out.append(f"{pad}}}")
    elif kind is RuntimeCall:
        out.append(f"{pad}{stmt.name}({', '.join(_expr_text(a, top=True) for a in stmt.args)});")
    else:
        raise TypeError(f"not a statement: {stmt!r}")


def emit_c(program: SecondStageProgram) -> str:
    """Deterministic C-like text; identical programs emit identical bytes."""
    if program.params:
        params = ", ".join(f"{kind} {name}" for name, kind in program.params)
    else:
        params = "void"
    lines = [RUNTIME_HEADER, "", f"void {program.name}({params}) {{"]
    for stmt in program.body:
        _stmt_lines(stmt, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
