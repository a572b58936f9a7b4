"""Differential test: ``emit_c`` against the emitter it replaced.

``reference_emit_c`` is ``emit_c`` as it was when its walk matched each node
structurally (``match``/``case``); ``emit_c`` now dispatches on each node's
exact type.  Both must print the same bytes for every program: the random
recordings of ``tests/test_interp_differential.py`` (seeds 0-299, general
and kernel-only), whether or not they build, the recordings C's types refuse
(``REFUSED`` in ``tests/test_interp.py``), every pinned build of
``tests/test_pins.py`` and the int literals at the ends of C's int.  A recording that does not build is emitted as
``tests/test_emitted_c.py::emit_recorded`` emits it, through a namespace
holding its name, parameters and body.  No compiler is needed.
"""

from types import SimpleNamespace

import pytest

from prophecy.second_stage import (
    RUNTIME_HEADER, ArrayIndex, Assign, Binary, Declare, Expr, FloatLit, ForLoop, IfElse, IntLit,
    RuntimeCall, RuntimeCallExpr, Stmt, VarRef, emit_c,
)
from prophecy.staging import StageContext
from test_interp import REFUSED, _refused_recording
from test_interp_differential import random_recording
from test_pins import STAGED


def _expr_text(expr: Expr, top: bool = False) -> str:
    match expr:
        case IntLit(value):
            return str(value) if value != -2**31 else "(-2147483647 - 1)"
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


def reference_emit_c(program) -> str:
    if program.params:
        params = ", ".join(f"{kind} {name}" for name, kind in program.params)
    else:
        params = "void"
    lines = [RUNTIME_HEADER, "", f"void {program.name}({params}) {{"]
    for stmt in program.body:
        _stmt_lines(stmt, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _recorded(ctx: StageContext) -> SimpleNamespace:
    """What ``ctx`` recorded, whether or not the program builds, as both emitters read it."""
    return SimpleNamespace(name=ctx._name, params=tuple(ctx._params), body=ctx._root)


@pytest.mark.parametrize("kernels", [False, True], ids=["general", "kernels"])
def test_random_recordings_emit_as_the_reference_does(kernels):
    unbuilt = 0
    for seed in range(300):
        ctx, _ = random_recording(seed, kernels)
        recorded = _recorded(ctx)
        assert emit_c(recorded) == reference_emit_c(recorded), seed
        try:
            ctx.finish()
        except ValueError:
            unbuilt += 1
    assert 0 < unbuilt < 300  # recordings that build and recordings that do not


def test_refused_recordings_emit_as_the_reference_does():
    for case, (statement, _) in sorted(REFUSED.items()):
        recorded = _recorded(_refused_recording(statement))
        assert emit_c(recorded) == reference_emit_c(recorded), case


@pytest.mark.parametrize("case", sorted(STAGED))
def test_pinned_builds_emit_as_the_reference_does(case):
    program, _ = STAGED[case][0]()
    assert emit_c(program) == reference_emit_c(program)


def test_int_literals_at_the_ends_of_cs_int_emit_as_the_reference_does():
    # C has no literal for -2**31: both print it as (-2147483647 - 1)
    body = [Declare(f"var{k}", "int", Binary("*", VarRef("arg0"), IntLit(value)))
            for k, value in enumerate((-2**31, -2**31 + 1, 2**31 - 1))]
    program = SimpleNamespace(name="t", params=(("arg0", "int"),), body=body)
    assert emit_c(program) == reference_emit_c(program)
    assert "int var0 = arg0 * (-2147483647 - 1);" in emit_c(program)


@pytest.mark.parametrize("body, message", [
    ([None], "not a statement: None"),
    ([Assign(VarRef("x"), VarRef("y")), "x = 1;"], "not a statement: 'x = 1;'"),
    ([RuntimeCall("runtime::memcpy", (VarRef("a"), VarRef("b"), 4.0))], "not an expression: 4.0"),
])
def test_what_is_no_node_is_refused_as_the_reference_refuses_it(body, message):
    program = SimpleNamespace(name="t", params=(), body=body)
    for emit in (emit_c, reference_emit_c):
        with pytest.raises(TypeError, match=f"^{message}$"):
            emit(program)
