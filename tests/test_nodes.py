"""The one construction rule of both IRs' nodes.

``core_lang``'s nodes, its ``StepObligations`` and ``second_stage``'s
expressions are frozen, slotted dataclasses whose ``__init__`` writes each
field through its slot; ``second_stage``'s statements are mutable, slotted
dataclasses.  Building them that way must keep everything a dataclass
gives: no per-instance dict, frozenness, equality and hashing through
copies and pickles, ``dataclasses.replace`` with the field checks, and a
constructor that takes exactly the fields.  A subclass of a node is still
no node to ``Program`` or to the type walk.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import re

import pytest

from prophecy import core_lang as core
from prophecy import second_stage as stage
from prophecy.second_stage import SecondStageProgram

_CMP = core.Cmp("<=", core.Var("x"), core.Num(0))
_SUM = stage.Binary("+", stage.VarRef("a"), stage.IntLit(1))

CORE_EXPRS = [
    core.Num(3),
    core.Var("x"),
    core.ABin("+", core.Num(1), core.Var("x")),
    core.BoolLit(True),
    _CMP,
    core.Not(core.BoolLit(False)),
    core.BBin("and", core.BoolLit(True), _CMP),
]
CORE_COMMANDS = [
    core.Skip(),
    core.Assign("x", core.ABin("*", core.Var("x"), core.Num(2))),
    core.If(_CMP, "l3"),
    core.Goto("l0"),
    core.Halt(),
    core.Done(),
]
STAGE_EXPRS = [
    stage.IntLit(7),
    stage.FloatLit(1.5),
    stage.VarRef("a"),
    _SUM,
    stage.ArrayIndex(stage.VarRef("p"), stage.IntLit(0)),
    stage.RuntimeCallExpr("runtime::malloc", (stage.IntLit(16),)),
]
FROZEN = [*CORE_EXPRS, *CORE_COMMANDS,
          core.StepObligations(frozenset({"x", "y"}), frozenset({"x"})), *STAGE_EXPRS]
STATEMENTS = [
    stage.Declare("var0", "int", _SUM),
    stage.Assign(stage.VarRef("a"), stage.IntLit(2)),
    stage.ForLoop("i", stage.IntLit(0), stage.IntLit(4), stage.IntLit(1),
                  [stage.Assign(stage.VarRef("a"), stage.IntLit(2))]),
    stage.IfElse(stage.Binary("<", stage.VarRef("a"), stage.IntLit(1)),
                 [stage.RuntimeCall("runtime::grid_sync", ())], None),
    stage.RuntimeCall("runtime::memcpy", (stage.VarRef("p"), stage.VarRef("q"), stage.IntLit(4))),
]
NODES = FROZEN + STATEMENTS


def _ids(nodes):
    return [f"{type(node).__module__.rsplit('.', 1)[-1]}.{type(node).__name__}" for node in nodes]


def test_every_node_class_of_both_irs_is_covered():
    expected = set("Num Var ABin BoolLit Cmp Not BBin Skip Assign If Goto Halt Done".split())
    assert {type(n).__name__ for n in NODES if type(n).__module__ == core.__name__} == {
        *expected, "StepObligations"}
    assert {type(n) for n in NODES if type(n).__module__ == stage.__name__} == {
        stage.IntLit, stage.FloatLit, stage.VarRef, stage.Binary, stage.ArrayIndex,
        stage.RuntimeCallExpr, stage.Declare, stage.Assign, stage.ForLoop, stage.IfElse,
        stage.RuntimeCall}


@pytest.mark.parametrize("node", NODES, ids=_ids(NODES))
def test_an_instance_has_no_dict(node):
    assert not hasattr(node, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(node, "extra", 1)


@pytest.mark.parametrize("node", FROZEN, ids=_ids(FROZEN))
def test_a_frozen_node_refuses_to_set_or_delete_a_field(node):
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, field.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1


@pytest.mark.parametrize("node", NODES, ids=_ids(NODES))
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_a_copy_is_an_equal_node(node, how):
    twin = {"pickle": lambda n: pickle.loads(pickle.dumps(n)), "copy": copy.copy,
            "deepcopy": copy.deepcopy}[how](node)
    assert type(twin) is type(node) and twin == node
    if node in FROZEN:
        assert hash(twin) == hash(node)


# Each replacement that a field check refuses, and the message the check gives.
REFUSED_REPLACEMENTS = [
    (stage.IntLit(1), {"value": 2**31}, "integer literal is outside C's int"),
    (stage.IntLit(1), {"value": True}, "integer literal is not an int: True"),
    (stage.FloatLit(1.0), {"value": float("inf")}, "float literal inf is not finite"),
    (_SUM, {"op": "/"}, "unknown binary operator '/'"),
    (stage.RuntimeCallExpr("runtime::malloc", (stage.IntLit(16),)), {"args": ()},
     "runtime call runtime::malloc takes 1 arguments, got 0"),
    (core.Num(1), {"value": True}, "integer literal is not a 64-bit integer: True"),
    (core.Num(1), {"value": 2**63}, f"integer literal is not a 64-bit integer: {2**63}"),
    (core.BoolLit(True), {"value": 1}, "boolean literal is not a bool: 1"),
    (STATEMENTS[0], {"kind": "long"}, "variable var0 has kind 'long', not int, float or float*"),
    (STATEMENTS[1], {"target": stage.IntLit(1)},
     "assignment target must be a variable or array element"),
    (STATEMENTS[2], {"step": stage.IntLit(0)},
     "loop step must be an int literal of at least 1, got IntLit(value=0)"),
]


@pytest.mark.parametrize("node, changes, message", REFUSED_REPLACEMENTS,
                         ids=[f"{type(n).__name__}-{next(iter(c))}" for n, c, _ in REFUSED_REPLACEMENTS])
def test_replace_runs_the_field_check(node, changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(node, **changes)


def test_replace_builds_an_equal_node():
    assert dataclasses.replace(stage.IntLit(1), value=2) == stage.IntLit(2)
    assert dataclasses.replace(core.Num(1), value=2) == core.Num(2)
    assert dataclasses.replace(_CMP, op="=") == core.Cmp("=", core.Var("x"), core.Num(0))
    assert dataclasses.replace(core.Skip()) == core.Skip()


@pytest.mark.parametrize("node", NODES, ids=_ids(NODES))
def test_the_constructor_takes_exactly_the_fields(node):
    cls = type(node)
    names = [field.name for field in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == tuple(names)
    assert cls(*[getattr(node, name) for name in names]) == node
    with pytest.raises(TypeError):
        cls(*[getattr(node, name) for name in names], None)


def _subclass(node):
    """An instance of a plain subclass of ``node``'s class, with ``node``'s fields."""
    sub = type(f"Sub{type(node).__name__}", (type(node),), {})
    return sub(*[getattr(node, field.name) for field in dataclasses.fields(node)])


@pytest.mark.parametrize("node", CORE_EXPRS + CORE_COMMANDS, ids=_ids(CORE_EXPRS + CORE_COMMANDS))
def test_program_refuses_a_subclass_of_a_node(node):
    sub = _subclass(node)
    if node in CORE_COMMANDS:
        command, message = sub, "not a command"
    elif isinstance(node, (core.Num, core.Var, core.ABin)):
        command, message = core.Assign("x", sub), "not an expression"
    else:
        command, message = core.If(sub, "l1"), "not an expression"
    with pytest.raises(TypeError, match=f"^{message}: "):
        core.Program([("l0", command), ("l1", core.Goto("l1"))])


@pytest.mark.parametrize("node", STAGE_EXPRS + STATEMENTS, ids=_ids(STAGE_EXPRS + STATEMENTS))
def test_the_type_walk_refuses_a_subclass_of_a_node(node):
    sub = _subclass(node)
    params = (("a", "int"), ("p", "float*"), ("q", "float*"))
    if node in STATEMENTS:
        body, message = [sub], "not a statement"
    else:
        body, message = [stage.Declare("var0", "float", sub)], "not an expression"
    with pytest.raises(ValueError, match=f"^{message}: "):
        SecondStageProgram("sub", params, body)
