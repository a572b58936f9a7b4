"""Recorded second-stage programs: AST, runtime-call registry, C-like emission.

A second-stage program is the artifact a first-stage (generator) run leaves
behind: declarations, assignments, loops, conditionals, and calls into a
small fixed runtime.  Programs are plain data — building them is the
recorder's job (see staging), executing them is the interpreter's (see
interp), and ``emit_c`` turns them into deterministic C-like text suitable
for golden-file comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

RUNTIME_CALLS = (
    "runtime::malloc",
    "runtime::free",
    "runtime::memcpy",
    "runtime::cuda_malloc",
    "runtime::cudaMemcpyToDevice",
    "runtime::cudaMemcpyToHost",
    "runtime::grid_sync",
)

RUNTIME_HEADER = '#include "runtime.h"'

_ELEM_BYTES = 4  # every buffer holds float32 elements; sizes passed to the runtime are bytes


class UnknownRuntimeCall(Exception):
    def __init__(self, name: str):
        super().__init__(f"unknown runtime call name {name!r}")
        self.name = name


def _check_runtime_name(name: str) -> str:
    if name not in RUNTIME_CALLS:
        raise UnknownRuntimeCall(name)
    return name


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
class Unary:
    op: str  # -
    operand: "Expr"


@dataclass(frozen=True)
class ArrayIndex:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class RuntimeCallExpr:
    name: str
    args: tuple["Expr", ...]

    def __post_init__(self) -> None:
        _check_runtime_name(self.name)


Expr = Union[IntLit, FloatLit, VarRef, Binary, Unary, ArrayIndex, RuntimeCallExpr]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Declare:
    name: str
    kind: str  # int | float | float*
    init: Expr | None = None


@dataclass
class Assign:
    target: Expr  # VarRef or ArrayIndex
    value: Expr


@dataclass
class ForLoop:
    var: str
    init: Expr
    cond: Expr
    step: Expr  # new value of var at the end of each iteration
    body: list["Stmt"]


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
        _check_runtime_name(self.name)


@dataclass
class Return:
    value: Expr | None = None


Stmt = Union[Declare, Assign, ForLoop, IfElse, RuntimeCall, Return]


@dataclass
class SecondStageProgram:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, kind) in declaration order
    body: list[Stmt]
    meta: dict = field(default_factory=dict, compare=False)


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
        case Unary(op, operand):
            return f"{op}{_expr_text(operand)}"
        case ArrayIndex(base, index):
            return f"{_expr_text(base)}[{_expr_text(index, top=True)}]"
        case RuntimeCallExpr(name, args):
            _check_runtime_name(name)
            arg_text = ", ".join(_expr_text(a, top=True) for a in args)
            return f"{name}({arg_text})"
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_lines(stmt: Stmt, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    match stmt:
        case Declare(name, kind, init):
            if init is None:
                out.append(f"{pad}{kind} {name};")
            else:
                out.append(f"{pad}{kind} {name} = {_expr_text(init, top=True)};")
        case Assign(target, value):
            out.append(f"{pad}{_expr_text(target, top=True)} = {_expr_text(value, top=True)};")
        case ForLoop(var, init, cond, step, body):
            head = (
                f"{pad}for (int {var} = {_expr_text(init, top=True)}; "
                f"{_expr_text(cond, top=True)}; {var} = {_expr_text(step, top=True)}) {{"
            )
            out.append(head)
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
            _check_runtime_name(name)
            arg_text = ", ".join(_expr_text(a, top=True) for a in args)
            out.append(f"{pad}{name}({arg_text});")
        case Return(value):
            if value is None:
                out.append(f"{pad}return;")
            else:
                out.append(f"{pad}return {_expr_text(value, top=True)};")
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
