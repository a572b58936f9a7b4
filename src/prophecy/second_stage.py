"""Recorded second-stage programs: AST, runtime-call registry, C-like emission.

A second-stage program is the artifact a first-stage (generator) run leaves
behind: declarations, assignments, loops, conditionals, and calls into a
small fixed runtime.  Programs are plain data — building them is the
recorder's job (see staging), executing them is the interpreter's (see
interp), and ``emit_c`` turns them into deterministic C-like text suitable
for golden-file comparison.  ``iter_stmts`` is the one walk over every
statement of a program in program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

# Each call's argument count, and whether it yields a pointer (an allocation) or is a statement.
RUNTIME_CALLS = {
    "runtime::malloc": (1, True), "runtime::memcpy": (3, False),
    "runtime::cuda_malloc": (1, True), "runtime::cudaMemcpyToDevice": (3, False),
    "runtime::cudaMemcpyToHost": (3, False), "runtime::grid_sync": (0, False),
}

RUNTIME_HEADER = '#include "runtime.h"'

_ELEM_BYTES = 4  # every buffer holds float32 elements; sizes passed to the runtime are bytes


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


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class FloatLit:
    value: float


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Binary:
    op: str  # + - * % < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ArrayIndex:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class RuntimeCallExpr:
    name: str
    args: tuple["Expr", ...]

    def __post_init__(self) -> None:
        _check_runtime_call(self.name, self.args, yields=True)


Expr = Union[IntLit, FloatLit, VarRef, Binary, ArrayIndex, RuntimeCallExpr]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Declare:
    name: str
    kind: str  # int | float | float*
    init: Expr

    def __post_init__(self) -> None:
        _check_kind(self.name, self.kind)


@dataclass
class Assign:
    target: Expr  # VarRef or ArrayIndex
    value: Expr


@dataclass
class ForLoop:
    """``for (int var = start; var < bound; var = var + step) { body }``."""

    var: str
    start: Expr
    bound: Expr
    step: Expr
    body: list["Stmt"]

    def __post_init__(self) -> None:
        if type(self.bound) is not IntLit or type(self.bound.value) is not int:
            raise ValueError(f"loop bound must be an int literal, got {self.bound!r}")
        if type(self.step) is not IntLit or type(self.step.value) is not int or self.step.value < 1:
            raise ValueError(f"loop step must be an int literal of at least 1, got {self.step!r}")


@dataclass
class IfElse:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"] | None = None


@dataclass
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
        if isinstance(stmt, ForLoop):
            yield from iter_stmts(stmt.body)
        elif isinstance(stmt, IfElse):
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


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------


def _expr_text(expr: Expr, top: bool = False) -> str:
    match expr:
        case IntLit(value):
            return str(value)
        case FloatLit(value):
            return repr(value)
        case VarRef(name):
            return name
        case Binary(op, left, right):
            text = f"{_expr_text(left)} {op} {_expr_text(right)}"
            return text if top else f"({text})"
        case ArrayIndex(base, index):
            return f"{_expr_text(base)}[{_expr_text(index, top=True)}]"
        case RuntimeCallExpr(name, args):
            arg_text = ", ".join(_expr_text(a, top=True) for a in args)
            return f"{name}({arg_text})"
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_lines(stmt: Stmt, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    match stmt:
        case Declare(name, kind, init):
            out.append(f"{pad}{kind} {name} = {_expr_text(init, top=True)};")
        case Assign(target, value):
            out.append(f"{pad}{_expr_text(target, top=True)} = {_expr_text(value, top=True)};")
        case ForLoop(var, start, bound, step, body):
            out.append(
                f"{pad}for (int {var} = {_expr_text(start, top=True)}; "
                f"{var} < {_expr_text(bound)}; {var} = {var} + {_expr_text(step)}) {{"
            )
            for inner in body:
                _stmt_lines(inner, depth + 1, out)
            out.append(f"{pad}}}")
        case IfElse(cond, then_body, else_body):
            out.append(f"{pad}if ({_expr_text(cond, top=True)}) {{")
            for inner in then_body:
                _stmt_lines(inner, depth + 1, out)
            if else_body is None:
                out.append(f"{pad}}}")
            else:
                out.append(f"{pad}}} else {{")
                for inner in else_body:
                    _stmt_lines(inner, depth + 1, out)
                out.append(f"{pad}}}")
        case RuntimeCall(name, args):
            arg_text = ", ".join(_expr_text(a, top=True) for a in args)
            out.append(f"{pad}{name}({arg_text});")
        case _:
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
