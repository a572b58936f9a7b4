"""Differential tests: each fast path against the path it replaced.

* ``compiled_step`` runs one label's compiled transition over slots (a
  probe of ``core_lang._transition``; the package exports no single step)
  from a ``Configuration``, a label and a state (the package has no such
  class: its executions keep a state only in their slots).
  It is compared with ``reference_step``, the tree-walking rules built on
  ``eval_expr`` (the tree evaluator, which also reports the variables it
  read), step by step along random executions (states may lack variables,
  so ``Stuck`` reasons are compared, and may hold values near 2**63, so
  64-bit wrap-around is compared).  An assignment or branch whose operator
  has two leaf operands compiles to one flat closure instead of a closure
  tree; hand-picked cases compare it with ``reference_step`` for every
  operator, leaf kind, empty slot and wrap-around edge.  ``compiled_walk``
  chains ``compiled_step`` into the configurations of an execution.  It,
  ``run_trace`` (a position count and how the run ended) and
  ``label_path``, the latter two each in its own loop over the transitions
  and one list of slots, are compared with a walk over ``reference_step``
  (``label_path`` with the first position of each of its distinct steps,
  plus the last), including stuck and truncated runs and initial variables
  the program never mentions.
* ``label_path`` finds new steps per label, building a ``(label, reached)``
  pair only where a label reaches something other than its first outcome.
  It is compared with ``tuple_set_walk``, the walk that looked such a pair
  up in a set at every position, over the same transitions: on random
  programs, a corpus, two small loops cut at every budget from 0 to the
  whole run, runs stuck on a label's first visit, and a branch whose two
  arms reach equal labels held as two string objects.
* ``print_program`` writes a ``Program`` back as text the parser reads; the
  package has no printer, and the round-trip tests in
  ``tests/test_core_lang.py`` and ``tests/test_parser_differential.py``
  use this one.
* ``analyze_concrete`` evaluates the standard execution once, before the
  first run, checks only its distinct steps, resumes each rerun at the
  step where the previous run aborted, and records each edge once.  It is
  compared with ``analyze_afresh``, which calls ``execute_once`` to run
  every rerun from the first step over a lazily evaluated ``Recording``,
  recording and checking every traversed edge, in default and
  ``strict_paper`` mode, including programs that get stuck and budgets
  that run out.
* ``analyze_all_paths_with_stats`` resumes each sweep at the label where
  the previous sweep aborted.  It is compared with ``all_paths_afresh``,
  which walks the control-flow graph from the entry on every sweep, on
  random programs with loops and unreachable labels.
* ``live_variables_oracle`` visits labels last to first.  It is compared
  with ``reference_oracle``, the same worklist visiting them first to
  last, on every label of random programs, including unreachable labels
  and labels that jump to themselves.
"""

import random
from dataclasses import dataclass
from typing import Mapping, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophecy import core_lang
from prophecy.core_lang import (
    AT_DONE,
    ABin,
    Assign,
    BBin,
    BoolLit,
    Cmp,
    Done,
    Goto,
    Halt,
    If,
    Not,
    Num,
    Program,
    Skip,
    StepObligations,
    Stuck,
    UndefinedVariableError,
    Trace,
    TraceKind,
    UnknownLabelError,
    Var,
    _IDENT_RE,
    command_obligations,
    is_variable_name,
    label_path,
    mask_names,
    obligation_masks,
    parse_program,
    run_trace,
)
from prophecy.engine import (
    AnalysisError,
    ProgramStuckError,
    RunStats,
    StepBudgetExceeded,
    analyze_all_paths_with_stats,
    analyze_concrete,
    live_variables_oracle,
    reachable_labels,
)
from randprog import (
    VARS,
    corpus,
    has_back_edge,
    random_program,
    random_state,
    terminating_sample,
)


def _wrap64(value):
    return (value + 2**63) % 2**64 - 2**63


def eval_expr(expr, state):
    """Evaluate an expression over its syntax tree, returning its value and the variables read.

    There is no short-circuiting: every subterm evaluates, so the read set
    equals expr_vars(expr) whenever evaluation succeeds.  Reading a variable
    missing from the state raises UndefinedVariableError.
    """
    reads = set()

    def arith(e):
        match e:
            case Num(value):
                return value
            case Var(name):
                reads.add(name)
                if name not in state:
                    raise UndefinedVariableError(name)
                return state[name]
            case ABin(op, left, right):
                a = arith(left)
                b = arith(right)
                if op == "+":
                    return _wrap64(a + b)
                if op == "-":
                    return _wrap64(a - b)
                return _wrap64(a * b)
        raise TypeError(f"not an arithmetic expression: {e!r}")

    def boolean(e):
        match e:
            case BoolLit(value):
                return value
            case Cmp(op, left, right):
                a = arith(left)
                b = arith(right)
                return a == b if op == "=" else a <= b
            case Not(operand):
                return not boolean(operand)
            case BBin(op, left, right):
                a = boolean(left)
                b = boolean(right)
                return (a and b) if op == "and" else (a or b)
        raise TypeError(f"not a boolean expression: {e!r}")

    value = arith(expr) if isinstance(expr, (Num, Var, ABin)) else boolean(expr)
    return value, frozenset(reads)


@dataclass(frozen=True)
class Configuration:
    """A label and a state, the state as (name, value) pairs sorted by name.

    Build one with ``make``, which sorts the pairs, so equal states compare equal.
    """

    label: str
    state: tuple[tuple[str, int], ...]

    @staticmethod
    def make(label: str, state: Mapping[str, int]) -> "Configuration":
        return Configuration(label, tuple(sorted(state.items())))

    def state_dict(self) -> dict[str, int]:
        return dict(self.state)

    def __str__(self) -> str:
        bindings = ", ".join(f"{k}={v}" for k, v in self.state)
        return f"<{self.label}, {{{bindings}}}>"


def reference_step(program, config):
    """The standard rules walked over the command's syntax tree."""
    command = program.command_at(config.label)
    state = config.state_dict()
    match command:
        case Done():
            return AT_DONE
        case Skip() | Halt():
            return Configuration.make(program.next_label(config.label), state)
        case Goto(target):
            return Configuration.make(target, state)
        case Assign(var, expr):
            try:
                value, _ = eval_expr(expr, state)
            except UndefinedVariableError as exc:
                return Stuck(str(exc))
            state[var] = int(value)
            return Configuration.make(program.next_label(config.label), state)
        case If(cond, target):
            try:
                value, _ = eval_expr(cond, state)
            except UndefinedVariableError as exc:
                return Stuck(str(exc))
            return Configuration.make(target if value else program.next_label(config.label), state)
    raise TypeError(f"not a command: {command!r}")


def compiled_step(program, config):
    """One compiled transition (``core_lang._transition``) over slots filled from ``config``."""
    _, slots = core_lang._start(program, dict(config.state), 1)
    reached = core_lang._transition(program, config.label)(slots)
    if not isinstance(reached, str):
        return reached
    written = {name: value for name, value in zip(program._slot, slots) if value is not None}
    return Configuration.make(reached, {**dict(config.state), **written})


def compiled_walk(program, state=None, max_steps=10_000):
    """The configurations of the positions ``run_trace`` visits, one ``compiled_step`` each.

    They keep initial bindings of variables the program never mentions; a
    run past the budget ends at position ``max_steps``.
    """
    configurations = [Configuration.make(program.first, state or {})]
    while len(configurations) <= max_steps:
        outcome = compiled_step(program, configurations[-1])
        if not isinstance(outcome, Configuration):
            break
        configurations.append(outcome)
    return tuple(configurations)


_values = st.one_of(
    st.integers(-8, 8),
    st.integers(2**63 - 16, 2**63 - 1),
    st.integers(-(2**63), -(2**63) + 16),
)
# a partial state: variables the program reads may be missing
_states = st.dictionaries(st.sampled_from(VARS), _values, max_size=len(VARS))


@given(st.integers(0, 2**32), _states)
@settings(max_examples=300, deadline=None)
def test_compiled_step_matches_reference(seed, state):
    program = random_program(random.Random(seed))
    config = Configuration.make(program.first, state)
    for _ in range(200):
        got, want = compiled_step(program, config), reference_step(program, config)
        assert got == want
        if not isinstance(got, Configuration):
            break
        config = got


@given(st.integers(0, 2**32), _states)
@settings(max_examples=100, deadline=None)
def test_compiled_step_matches_reference_from_every_label(seed, state):
    program = random_program(random.Random(seed))
    for label in program.labels:
        config = Configuration.make(label, state)
        assert compiled_step(program, config) == reference_step(program, config)


_names = st.sampled_from(["x", "y", "z"])
_aexps = st.recursive(
    st.one_of(_values.map(Num), _names.map(Var)),
    lambda children: st.builds(ABin, st.sampled_from("+-*"), children, children),
    max_leaves=6,
)
_bexps = st.recursive(
    st.one_of(
        st.booleans().map(BoolLit),
        st.builds(Cmp, st.sampled_from(["=", "<="]), _aexps, _aexps),
    ),
    lambda children: st.one_of(
        children.map(Not), st.builds(BBin, st.sampled_from(["and", "or"]), children, children)
    ),
    max_leaves=6,
)
_partial_states = st.dictionaries(_names, _values)


@given(_aexps, _bexps, _partial_states)
@settings(max_examples=500, deadline=None)
def test_compiled_expressions_match_reference(expr, cond, state):
    """Deeper expressions than randprog draws, so and/or/not and wrap-around all occur."""
    program = Program(
        [("l0", Assign("x", expr)), ("l1", If(cond, "l0")), ("l2", Halt()), ("l3", Done())]
    )
    for label in ("l0", "l1"):
        config = Configuration.make(label, state)
        assert compiled_step(program, config) == reference_step(program, config)


def reference_trace(program, state, max_steps):
    """The configurations, ``run_trace`` and each position's step by ``reference_step``, one
    tree walk per position."""
    config = Configuration.make(program.first, state)
    configurations, path = [], []
    for _ in range(max_steps + 1):
        configurations.append(config)
        outcome = reference_step(program, config)
        path.append((config.label, outcome.label if isinstance(outcome, Configuration) else outcome))
        if outcome is AT_DONE:
            kind, reason = TraceKind.COMPLETE, None
            break
        if isinstance(outcome, Stuck):
            kind, reason = TraceKind.STUCK, outcome.reason
            break
        config = outcome
    else:
        kind, reason = TraceKind.TRUNCATED, f"no done within {max_steps} steps"
    return tuple(configurations), Trace(len(configurations), kind, reason), path


def tuple_set_walk(program, state, max_steps):
    """The entries ``label_path`` gave when it looked a ``(label, reached)`` tuple up in a set at
    every position, over the same compiled transitions; it replays nothing."""
    _, slots = core_lang._start(program, state, max_steps)
    seen, entries, label = set(), [], program.first
    for position in range(max_steps + 1):
        reached = core_lang._transition(program, label)(slots)
        this_step = label, reached
        if this_step not in seen:
            seen.add(this_step)
            entries.append((position, label, reached))
        if not isinstance(reached, str):
            break
        label = reached
    if entries[-1][0] != position:
        entries.append((position, *this_step))
    return entries


_PREC = {"or": 1, "and": 2, "not": 3, "=": 4, "<=": 4, "+": 5, "-": 5, "*": 6}


def _expr_text(expr, parent_prec: int = 0, right_side: bool = False) -> str:
    match expr:
        case Num(value) if value < 0:  # the grammar has no negative literal: print 0 - n
            n = ABin("-", Num(0), Num(min(-value, 2**63 - 1)))  # -2**63 is 0 - (2**63 - 1) - 1
            return _expr_text(n if value > -2**63 else ABin("-", n, Num(1)), parent_prec, right_side)
        case Num(value):
            return str(value)
        case Var(name):
            return name
        case BoolLit(value):
            return "true" if value else "false"
        case Not(operand):
            return f"not {_expr_text(operand, _PREC['not'])}"
        case ABin(op, left, right) | Cmp(op, left, right) | BBin(op, left, right):
            prec = _PREC[op]
            text = f"{_expr_text(left, prec)} {op} {_expr_text(right, prec, True)}"
            # left-associative: a right child at equal precedence needs parens
            if prec < parent_prec or (prec == parent_prec and right_side):
                return f"({text})"
            return text


def _command_text(command) -> str:
    match command:
        case Skip():
            return "skip"
        case Assign(var, expr):
            return f"{var} := {_expr_text(expr)}"
        case If(cond, target):
            return f"if {_expr_text(cond)} then {target}"
        case Goto(target):
            return f"goto {target}"
        case Halt():
            return "halt"
        case Done():
            return "done"


def print_program(program: Program) -> str:
    """Canonical text form; parse_program(print_program(p)) == p but for a negative Num.

    A name the parser cannot read is a ValueError naming the first one: the
    labels in program order, then the variables in sorted order.
    """
    for label in program.labels:
        if not _IDENT_RE.fullmatch(label):
            raise ValueError(f"label {label!r} is not an identifier")
    for name in sorted(program.variables()):
        if not is_variable_name(name):
            raise ValueError(f"variable {name!r} is not an identifier, or is a keyword")
    return "\n".join(f"{label}: {_command_text(command)}" for label, command in program.commands)


# the program's variables and some it never mentions, sorting before, among and after them
_walk_states = st.dictionaries(st.sampled_from(VARS + ["_a", "cc", "zz"]), _values, max_size=9)


@given(st.integers(0, 2**32), _walk_states, st.sampled_from([0, 3, 10_000]))
@settings(max_examples=300, deadline=None)
def test_slot_walk_matches_reference_walk(seed, state, max_steps):
    """Partial states get stuck, small budgets truncate, values near 2**63 wrap."""
    program = random_program(random.Random(seed))
    configurations, trace, path = reference_trace(program, state, max_steps)
    assert compiled_walk(program, state, max_steps) == configurations
    assert run_trace(program, state, max_steps) == trace
    # the first position of each (label, reached) step, and the last position
    first = {taken: position for position, taken in reversed(list(enumerate(path)))}
    entries = [(position, *taken) for position, taken in enumerate(path)
               if first[taken] == position or position == len(path) - 1]
    assert list(label_path(program, state, max_steps)) == entries
    assert list(label_path(program, state, max_steps)) == entries  # the recorded replay


def assert_walk_matches_tuple_set_walk(program, state, max_steps):
    """A cold ``label_path`` and its replay give the tuple-set walk's entries."""
    expected = tuple_set_walk(Program(program.commands), state, max_steps)
    assert list(label_path(program, state, max_steps)) == expected
    assert list(label_path(program, state, max_steps)) == expected  # the recorded replay
    return expected


@given(st.integers(0, 2**32), _walk_states, st.integers(0, 40) | st.just(10_000))
@settings(max_examples=300, deadline=None)
def test_label_path_matches_tuple_set_walk(seed, state, max_steps):
    assert_walk_matches_tuple_set_walk(random_program(random.Random(seed)), state, max_steps)


def test_label_path_matches_tuple_set_walk_on_corpus():
    rng = random.Random(37)
    for program in corpus(rng, 200):
        state = random_state(rng, program)
        for max_steps in (0, 1, 7, 10_000):
            assert_walk_matches_tuple_set_walk(program, state, max_steps)


COUNTDOWN = """
l0: x := 3
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""

# l3 takes its two arms in turn, so each arm recurs after the other
ALTERNATING = """
l0: t := 0
l1: n := 4
l2: t := 1 - t
l3: if t <= 0 then l5
l4: skip
l5: n := n - 1
l6: if n <= 0 then l8
l7: goto l2
l8: halt
l9: done
"""


@pytest.mark.parametrize("text", [COUNTDOWN, ALTERNATING], ids=["countdown", "alternating"])
def test_label_path_matches_tuple_set_walk_at_every_budget(text):
    """Budgets from 0 to the whole run cut the loop at every position, among them the one
    right after a branch's second arm first occurs."""
    program = parse_program(text)
    length = run_trace(program).length
    for max_steps in range(length + 1):
        assert_walk_matches_tuple_set_walk(program, {}, max_steps)


def test_countdown_walk_yields_the_second_arm_once():
    program = parse_program(COUNTDOWN)
    assert assert_walk_matches_tuple_set_walk(program, {}, 10_000) == [
        (0, "l0", "l1"), (1, "l1", "l2"), (2, "l2", "l3"), (3, "l3", "l1"),
        (10, "l1", "l4"), (11, "l4", "l5"), (12, "l5", AT_DONE)]
    # cut right after the second arm, and inside the loop, where the last step is old
    assert list(label_path(program, {}, 11))[-2:] == [(10, "l1", "l4"), (11, "l4", "l5")]
    assert list(label_path(program, {}, 9))[-2:] == [(3, "l3", "l1"), (9, "l3", "l1")]


def test_label_path_matches_tuple_set_walk_when_stuck_on_a_first_visit():
    program = parse_program("l0: x := 1\nl1: y := z + x\nl2: halt\nl3: done")
    stuck = Stuck(str(UndefinedVariableError("z")))
    assert assert_walk_matches_tuple_set_walk(program, {}, 10_000) == [
        (0, "l0", "l1"), (1, "l1", stuck)]
    assert assert_walk_matches_tuple_set_walk(program, {}, 1) == [(0, "l0", "l1"), (1, "l1", stuck)]
    assert assert_walk_matches_tuple_set_walk(program, {}, 0) == [(0, "l0", "l1")]
    looping = parse_program("l0: y := z\nl1: goto l0\nl2: halt\nl3: done")
    assert assert_walk_matches_tuple_set_walk(looping, {}, 0) == [(0, "l0", stuck)]


def test_label_path_compares_an_equal_outcome_by_equality():
    # the branch's target is its next label, as another string object: both arms are one step
    target = "".join(["l", "2"])
    program = Program([
        ("l0", Assign("x", Num(2))),
        ("l1", If(Cmp("<=", Var("x"), Num(0)), target)),
        ("l2", Assign("x", ABin("-", Var("x"), Num(1)))),
        ("l3", If(Cmp("<=", Num(0), Var("x")), "l1")),
        ("l4", Halt()),
        ("l5", Done()),
    ])
    transition = core_lang._transition(program, "l1")
    taken, fallen = transition([0]), transition([1])
    assert taken == fallen and taken is not fallen
    assert assert_walk_matches_tuple_set_walk(program, {}, 10_000) == [
        (0, "l0", "l1"), (1, "l1", "l2"), (2, "l2", "l3"), (3, "l3", "l1"), (9, "l3", "l4"),
        (10, "l4", "l5"), (11, "l5", AT_DONE)]


def test_foreign_label_is_unknown():
    program = random_program(random.Random(0))
    with pytest.raises(UnknownLabelError):
        compiled_step(program, Configuration.make("nowhere", {}))


# ---------------------------------------------------------------------------
# Flat transitions: an operator over two leaves compiles to one closure
# ---------------------------------------------------------------------------


@pytest.fixture
def tree_calls(monkeypatch):
    """Each expression ``core_lang._expr`` compiles into a closure tree, in order."""
    calls = []
    expr = core_lang._expr

    def counting(node, slot):
        calls.append(node)
        return expr(node, slot)

    monkeypatch.setattr(core_lang, "_expr", counting)
    return calls


def _flat_node(op, left, right):
    return ABin(op, left, right) if op in "+-*" else Cmp(op, left, right)


def _flat_program(node):
    """``z := node`` at l0, or ``if node then l3`` there; both flat for a leaf-over-leaf node."""
    command = Assign("z", node) if isinstance(node, ABin) else If(node, "l3")
    return Program([("l0", command), ("l1", Halt()), ("l2", Done()), ("l3", Goto("l1"))])


def _assert_flat_steps_match(node, states):
    program = _flat_program(node)
    for state in states:
        config = Configuration.make("l0", state)
        assert compiled_step(program, config) == reference_step(program, config), (node, state)


_LEAF_PAIRS = [(Var("x"), Var("y")), (Var("x"), Num(3)), (Num(-4), Var("y")), (Num(6), Num(-2))]
_FULL_STATES = [{"x": 5, "y": -2}, {"x": -2, "y": 5}, {"x": 3, "y": 3}, {"x": 6, "y": -4, "w": 1}]


@pytest.mark.parametrize("op", ["+", "-", "*", "=", "<="])
@pytest.mark.parametrize("left, right", _LEAF_PAIRS)
def test_flat_transition_matches_reference(tree_calls, op, left, right):
    node = _flat_node(op, left, right)
    _assert_flat_steps_match(node, _FULL_STATES)
    assert tree_calls == []  # the flat closure, not the tree, ran


@pytest.mark.parametrize("op", ["+", "-", "*", "=", "<="])
def test_flat_transition_names_the_first_empty_slot(tree_calls, op):
    node = _flat_node(op, Var("x"), Var("y"))
    _assert_flat_steps_match(node, [{"y": 1}, {"x": 1}, {}, {"w": 1}])
    program = _flat_program(node)
    for state, name in (({"y": 1}, "x"), ({"x": 1}, "y"), ({}, "x")):
        after = compiled_step(program, Configuration.make("l0", state))
        assert after == Stuck(f"undefined variable {name!r}")
    assert tree_calls == []


@pytest.mark.parametrize("node, state, value", [
    (ABin("+", Var("x"), Num(1)), {"x": 2**63 - 1}, -(2**63)),
    (ABin("-", Var("x"), Num(1)), {"x": -(2**63)}, 2**63 - 1),
    (ABin("-", Num(0), Var("x")), {"x": -(2**63)}, -(2**63)),
    (ABin("*", Var("x"), Var("y")), {"x": 2**62, "y": 2}, -(2**63)),
    (ABin("*", Var("x"), Var("y")), {"x": -(2**63), "y": -1}, -(2**63)),
    (ABin("+", Var("x"), Var("y")), {"x": 2**63 - 1, "y": 2**63 - 1}, -2),
    (ABin("-", Var("x"), Var("y")), {"x": 2**63 - 1, "y": -(2**63) + 1}, -2),
    (ABin("+", Var("x"), Num(0)), {"x": 2**63 - 1}, 2**63 - 1),
    (ABin("-", Var("x"), Num(0)), {"x": -(2**63)}, -(2**63)),
])
def test_flat_assignment_wraps_at_the_64_bit_edges(tree_calls, node, state, value):
    _assert_flat_steps_match(node, [state])
    after = compiled_step(_flat_program(node), Configuration.make("l0", state))
    assert after.state_dict()["z"] == value
    assert tree_calls == []


@pytest.mark.parametrize("op", ["+", "-", "*", "=", "<="])
def test_flat_transition_reads_one_variable_twice(tree_calls, op):
    """``x := x op x`` reads x before it writes it."""
    node = _flat_node(op, Var("x"), Var("x"))
    states = [{"x": 3}, {"x": -7}, {"x": 2**62}, {"x": -(2**63)}, {"x": 2**63 - 1}, {}]
    _assert_flat_steps_match(node, states)
    if op in "+-*":
        program = Program([("l0", Assign("x", node)), ("l1", Halt()), ("l2", Done())])
        for state in states:
            config = Configuration.make("l0", state)
            assert compiled_step(program, config) == reference_step(program, config)
    assert tree_calls == []


COUNTING_LOOP = """
l0: i := 10
l1: s := 0
l2: if i <= 0 then l6
l3: s := s + i
l4: i := i - 1
l5: goto l2
l6: halt
l7: done
"""


def test_flat_commands_of_a_counting_loop_compile_no_tree(tree_calls):
    """A silent fallback to the closure tree would pass every other test: count ``_expr`` calls."""
    program = parse_program(COUNTING_LOOP)
    made = {}
    for label in program.labels:
        before = len(tree_calls)
        core_lang._transition(program, label)
        made[label] = len(tree_calls) - before
    # the two literal assignments are trees of one leaf; the branch and both updates are flat
    assert made == {"l0": 1, "l1": 1, "l2": 0, "l3": 0, "l4": 0, "l5": 0, "l6": 0, "l7": 0}
    trace = run_trace(program)
    assert trace.kind is TraceKind.COMPLETE
    configurations = compiled_walk(program)
    assert configurations[-1].state_dict() == {"i": 0, "s": 55}
    assert (configurations, trace) == reference_trace(program, {}, 10_000)[:2]


@dataclass(frozen=True)
class Completed:
    reached_done: bool
    steps: int


@dataclass(frozen=True)
class Misprediction:
    label: str
    kind: str  # precondition | constraint
    edge: tuple | None = None


ExecutionOutcome = Union[Completed, Misprediction]


def empty_results(program):
    return {label: frozenset() for label in program.labels}


def solve(label, results, constraints):
    """Re-establish every recorded constraint after results[label] grew, over sets of names.

    ``engine.solve`` repairs bit masks; the references keep the set
    arithmetic, so they share no repair code with the engine.
    """
    pending = [label]
    while pending:
        current = pending.pop()
        for predecessor, extra in constraints.get(current, ()):
            missing = results[current] - extra - results[predecessor]
            if missing:
                results[predecessor] |= missing
                pending.append(predecessor)


def record_constraint(constraints, label, successor, extra):
    """Record the edge's constraint in ``solve``'s mapping; False if it is there already.

    The references re-traverse edges, so unlike the engine they need the
    membership test.
    """
    recorded = constraints.setdefault(successor, [])
    if (label, extra) in recorded:
        return False
    recorded.append((label, extra))
    return True


@dataclass
class Recording:
    """The standard execution of one program from one initial state, evaluated so far.

    ``labels[k]`` is the label after k transitions and ``config`` is the
    configuration at ``labels[-1]``.  ``compiled_step`` runs only past the
    recorded end, so the reference evaluates each position once without
    sharing ``core_lang.label_path`` with the engine.
    """

    program: Program
    labels: list
    config: Configuration

    @classmethod
    def start(cls, program, initial_state):
        config = Configuration.make(program.first, initial_state or {})
        return cls(program, [config.label], config)

    def successors(self, position):
        """The label after ``labels[position]``."""
        if position + 1 < len(self.labels):
            return (self.labels[position + 1],)
        outcome = compiled_step(self.program, self.config)
        if outcome is AT_DONE:
            return ()
        if isinstance(outcome, Stuck):
            raise ProgramStuckError(self.labels[position], outcome.reason)
        self.labels.append(outcome.label)
        self.config = outcome
        return (outcome.label,)


def execute_once(
    program, initial_state, results, constraints, max_steps=10_000, *, repair_constraints=True
) -> ExecutionOutcome:
    """One forward run from the first step, checking preconditions and collecting constraints.

    Returns Misprediction as soon as a repair happened (the caller reruns);
    Completed(reached_done=False) when the step budget ran out violation-free.
    Standard stuckness is a program error, not a misprediction.  Every
    traversed edge is recorded and, unless ``repair_constraints`` is off,
    checked, however often the run has traversed it before.
    """
    recording = Recording.start(program, initial_state)
    labels = recording.labels
    position = 0
    while position <= max_steps and position < len(labels):
        label = labels[position]
        obligations = command_obligations(program, label)
        missing = obligations.precondition - results[label]
        if missing:
            results[label] |= missing
            solve(label, results, constraints)
            return Misprediction(label, "precondition")
        extra = obligations.prediction_extra
        for successor in recording.successors(position):
            record_constraint(constraints, label, successor, extra)
            if repair_constraints and (excess := results[successor] - extra - results[label]):
                results[label] |= excess
                solve(label, results, constraints)
                return Misprediction(label, "constraint", edge=(label, successor))
        position += 1
    if position == len(labels):
        return Completed(reached_done=True, steps=position - 1)
    return Completed(reached_done=False, steps=max_steps)


STRAIGHT = "l0: x := 1\nl1: y := x\nl2: halt\nl3: done"

LOOP = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""


class TestExecuteOnce:
    def test_first_run_mispredicts_at_read(self):
        program = parse_program(STRAIGHT)
        results = empty_results(program)
        constraints = {}
        outcome = execute_once(program, {}, results, constraints)
        assert outcome == Misprediction("l1", "precondition")
        assert results["l1"] == {"x"}

    def test_second_run_completes_and_collects_constraints(self):
        program = parse_program(STRAIGHT)
        results = empty_results(program)
        constraints = {}
        execute_once(program, {}, results, constraints)
        outcome = execute_once(program, {}, results, constraints)
        assert isinstance(outcome, Completed) and outcome.reached_done
        assert constraints == {
            "l1": [("l0", frozenset({"x"}))],
            "l2": [("l1", frozenset({"y"}))],
            "l3": [("l2", frozenset())],
        }

    def test_read_free_program_completes_first_run(self):
        program = parse_program("l0: x := 1\nl1: skip\nl2: halt\nl3: done")
        outcome = execute_once(program, {}, empty_results(program), {})
        assert isinstance(outcome, Completed) and outcome.reached_done

    def test_stuck_program_is_an_error_not_a_misprediction(self):
        program = parse_program("l0: y := x\nl1: halt\nl2: done")
        results = empty_results(program)
        constraints = {}
        # first run repairs the precondition at l0
        assert execute_once(program, {}, results, constraints) == Misprediction(
            "l0", "precondition"
        )
        with pytest.raises(ProgramStuckError):
            execute_once(program, {}, results, constraints)

    def test_results_only_grow_across_runs(self):
        program = parse_program(LOOP)
        results = empty_results(program)
        constraints = {}
        snapshots = [dict(results)]
        while True:
            outcome = execute_once(program, {}, results, constraints)
            snapshots.append(dict(results))
            if isinstance(outcome, Completed):
                break
        for before, after in zip(snapshots, snapshots[1:]):
            for label in program.labels:
                assert before[label] <= after[label]


def analyze_afresh(program, initial_state, max_steps, strict_paper):
    """``analyze_concrete`` with every run evaluated from the start."""
    results = empty_results(program)
    constraints = {}
    repairs = {"precondition": 0, "constraint": 0}
    while True:
        outcome = execute_once(
            program, initial_state, results, constraints, max_steps,
            repair_constraints=not strict_paper,
        )
        if not isinstance(outcome, Misprediction):
            break
        repairs[outcome.kind] += 1
    if not outcome.reached_done:
        raise StepBudgetExceeded(max_steps)
    runs = repairs["precondition"] + repairs["constraint"] + 1
    return results, RunStats(runs, repairs["precondition"], repairs["constraint"])


def _outcome(analyze, *args):
    try:
        return analyze(*args)
    except AnalysisError as exc:
        return type(exc), exc.args, getattr(exc, "label", None), getattr(exc, "reason", None)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_replay_matches_afresh_on_terminating_sample(strict_paper):
    for program, state in terminating_sample(random.Random(11), 60):
        args = (program, state, 10_000, strict_paper)
        assert analyze_concrete(program, state, 10_000, strict_paper=strict_paper) == (
            analyze_afresh(*args)
        )


@given(st.integers(0, 2**32), st.sampled_from([1, 5, 40, 10_000]), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_replay_matches_afresh_when_stuck_or_over_budget(seed, max_steps, drop, strict_paper):
    rng = random.Random(seed)
    program = random_program(rng)
    state = random_state(rng, program)
    if drop and state:
        del state[rng.choice(sorted(state))]  # likely stuck on the dropped variable

    def replayed(program, state, max_steps, strict_paper):
        return analyze_concrete(program, state, max_steps, strict_paper=strict_paper)

    args = (program, state, max_steps, strict_paper)
    assert _outcome(replayed, *args) == _outcome(analyze_afresh, *args)


def _sweep_afresh(program, results, constraints):
    """One sweep from the entry, depth first, fall-through before branch target.

    Returns the kind of the first repair, which ends the sweep, or None.
    """
    visited = set()
    stack = [program.first]
    while stack:
        label = stack.pop()
        if label in visited:
            continue
        visited.add(label)
        obligations = command_obligations(program, label)
        missing = obligations.precondition - results[label]
        if missing:
            results[label] |= missing
            solve(label, results, constraints)
            return "precondition"
        successors = program.ordered_successors(label)
        for successor in successors:
            record_constraint(constraints, label, successor, obligations.prediction_extra)
            excess = results[successor] - obligations.prediction_extra - results[label]
            if excess:
                results[label] |= excess
                solve(label, results, constraints)
                return "constraint"
        stack.extend(s for s in reversed(successors) if s not in visited)
    return None


def all_paths_afresh(program):
    """``analyze_all_paths_with_stats`` with every sweep walking from the entry."""
    results = empty_results(program)
    constraints = {}
    repairs = {"precondition": 0, "constraint": 0}
    while (kind := _sweep_afresh(program, results, constraints)) is not None:
        repairs[kind] += 1
    runs = repairs["precondition"] + repairs["constraint"] + 1
    return results, RunStats(runs, repairs["precondition"], repairs["constraint"])


@given(st.integers(0, 2**32), st.integers(2, 40))
@settings(max_examples=300, deadline=None)
def test_all_paths_resumed_matches_afresh(seed, max_body):
    program = random_program(random.Random(seed), max_body=max_body)
    assert analyze_all_paths_with_stats(program) == all_paths_afresh(program)


def test_all_paths_resumed_matches_afresh_on_corpus():
    programs = corpus(random.Random(17), 200)
    assert any(has_back_edge(program) for program in programs)
    assert any(len(reachable_labels(program)) < len(program.labels) for program in programs)
    assert any(all_paths_afresh(program)[1].constraint_repairs for program in programs)
    for program in programs:
        assert analyze_all_paths_with_stats(program) == all_paths_afresh(program)


def reference_oracle(program):
    """``live_variables_oracle`` with its first visits in label order, first to last."""
    live = {label: frozenset() for label in program.labels}
    pending = list(reversed(program.labels))
    in_queue = set(pending)
    while pending:
        label = pending.pop()
        in_queue.discard(label)
        obligations = command_obligations(program, label)
        out = frozenset()
        for successor in program.successors(label):
            out |= live[successor]
        updated = obligations.precondition | (out - obligations.prediction_extra)
        if updated != live[label]:
            live[label] = updated
            for predecessor in program.predecessors(label):
                if predecessor not in in_queue:
                    pending.append(predecessor)
                    in_queue.add(predecessor)
    return live


def with_self_loop(program, position):
    """The program with the command at ``position`` of its body replaced by a jump to itself."""
    commands = list(program.commands)
    label, _ = commands[position % (len(commands) - 2)]
    commands[position % (len(commands) - 2)] = (label, Goto(label))
    return Program(commands)


@given(st.integers(0, 2**32), st.integers(2, 40), st.none() | st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_backward_oracle_matches_forward_reference(seed, max_body, self_loop):
    program = random_program(random.Random(seed), max_body=max_body)
    if self_loop is not None:
        program = with_self_loop(program, self_loop)
    assert live_variables_oracle(program) == reference_oracle(program)


def test_backward_oracle_matches_forward_reference_on_corpus():
    programs = corpus(random.Random(23), 200)
    programs += [with_self_loop(program, 3) for program in programs[:50]]
    assert any(len(reachable_labels(program)) < len(program.labels) for program in programs)
    assert any(label in program.successors(label) for program in programs for label in program.labels)
    for program in programs:
        oracle = live_variables_oracle(program)
        assert oracle == reference_oracle(program)
        assert oracle.keys() == set(program.labels)


def assert_masks_match_obligations(program):
    """Each label's ``obligation_masks``, decoded with bit k as the k-th sorted variable name,
    are its ``command_obligations``; ``mask_names`` decodes them alike."""
    names = sorted(program.variables())

    def decoded(mask):
        assert 0 <= mask < 1 << len(names)
        names_of = frozenset(name for k, name in enumerate(names) if mask >> k & 1)
        assert mask_names(program, mask) == names_of
        return names_of

    masks = obligation_masks(program)
    assert list(masks) == list(program.labels)
    for label, (read, defined) in masks.items():
        assert StepObligations(decoded(read), decoded(defined)) == command_obligations(program, label), label


@given(st.integers(0, 2**32), st.integers(2, 40))
@settings(max_examples=300, deadline=None)
def test_masks_decode_to_obligations(seed, max_body):
    assert_masks_match_obligations(random_program(random.Random(seed), max_body=max_body))


def test_masks_decode_to_obligations_on_corpus():
    programs = corpus(random.Random(29), 200)
    assert any(len(command_obligations(program, label).precondition) > 1
               for program in programs for label in program.labels)
    assert len({name for program in programs for name in program.variables()}) == len(VARS)
    for program in programs:
        assert_masks_match_obligations(program)
