import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prophecy.core_lang import (
    AT_DONE,
    ABin,
    Assign,
    AtDone,
    BBin,
    BoolLit,
    Cmp,
    Configuration,
    Done,
    Goto,
    Halt,
    If,
    Not,
    Num,
    ParseError,
    Program,
    ProgramStructureError,
    Skip,
    Stuck,
    TraceKind,
    UndefinedVariableError,
    Var,
    command_obligations,
    expr_vars,
    label_path,
    parse_program,
    print_program,
    run_trace,
    step,
)
from prophecy.engine import analyze_concrete, live_variables_oracle
from prophecy.extended import check_progress
from randprog import random_program
from test_differential import _wrap64, eval_expr, reference_step

MINIMAL = "l0: x := 1\nl1: halt\nl2: done"

LOOP = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""


class TestParser:
    def test_minimal_program(self):
        program = parse_program(MINIMAL)
        assert len(program.commands) == 3
        assert program.first == "l0"
        assert program.command_at("l0") == Assign("x", Num(1))
        assert program.command_at("l1") == Halt()
        assert program.command_at("l2") == Done()

    def test_duplicate_label_rejected(self):
        with pytest.raises(ProgramStructureError, match="duplicate label"):
            parse_program("l0: skip\nl0: halt")

    def test_halt_must_be_followed_by_done(self):
        with pytest.raises(ProgramStructureError, match="halt"):
            parse_program("l0: halt\nl1: skip")

    def test_dangling_target_rejected(self):
        with pytest.raises(ProgramStructureError, match="unknown label"):
            parse_program("l0: goto l9\nl1: halt\nl2: done")

    def test_fallthrough_last_command_rejected(self):
        with pytest.raises(ProgramStructureError, match="fall through"):
            parse_program("l0: halt\nl1: done\nl2: skip")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("l0: halt\nl1: skip\nl0: done", "duplicate label"),
            ("l0: halt\nl1: goto l9\nl2: skip", "halt at 'l0'"),
            ("l0: goto l9\nl1: halt\nl2: skip", "unknown label 'l9'"),
            ("l0: halt\nl1: done\nl2: halt", "halt at 'l2'"),
        ],
    )
    def test_first_structure_error_in_validation_order(self, text, message):
        """Duplicates first, then halts and targets in program order, then the last command."""
        with pytest.raises(ProgramStructureError, match=message):
            parse_program(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("l0: x := 1\nl1: x := ??\nl2: halt\nl3: done")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "text, column",
        [
            ("l0: x := ?", 10),  # the bad token inside the command
            ("l1: x := ??\nl2: done", 10),
            ("l0: goto", 9),  # just past the end of the 8-character line
            ("  l0:  x := 1 +", 16),
            ("l0: if " + "(" * 60 + "x" + ")" * 60 + " <= 1 then l0", 59),  # past the 51st '('
            ("l0: if x <= 1 thn l0", 18),  # past the word read in place of 'then'
        ],
    )
    def test_syntax_error_column_is_one_based(self, text, column):
        with pytest.raises(ParseError) as excinfo:
            parse_program(text)
        assert excinfo.value.column == column
        assert str(excinfo.value).startswith(f"1:{column}: ")

    def test_comments_and_blank_lines(self):
        text = "# header\nl0: x := 1  # set x\n\nl1: halt\nl2: done\n"
        program = parse_program(text)
        assert program.labels == ("l0", "l1", "l2")

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, separator):
        # a comment runs on past any other line separator, which inside a command is no blank
        program = parse_program(f"l0: x := 1 # note{separator}more\nl1: halt\nl2: done")
        assert program.labels == ("l0", "l1", "l2")
        with pytest.raises(ParseError, match=r"^1:11: unexpected trailing input"):
            parse_program(f"l0: x := 1{separator}l1: halt\nl2: done")

    def test_universal_newlines_end_a_line(self):
        with pytest.raises(ParseError, match=r"^3:10: expected integer"):
            parse_program("l0: x := 1\r\nl1: halt\rl2: y := ?\nl3: done")

    def test_precedence_and_parens(self):
        program = parse_program("l0: x := 1 + 2 * 3 - (4 - 1)\nl1: halt\nl2: done")
        expr = program.command_at("l0").expr
        assert expr == ABin(
            "-", ABin("+", Num(1), ABin("*", Num(2), Num(3))), ABin("-", Num(4), Num(1))
        )

    def test_boolean_grammar(self):
        program = parse_program("l0: if not x <= 1 and true or y = 0 then l1\nl1: halt\nl2: done")
        cond = program.command_at("l0").cond
        assert cond == BBin(
            "or",
            BBin("and", Not(Cmp("<=", Var("x"), Num(1))), BoolLit(True)),
            Cmp("=", Var("y"), Num(0)),
        )


class TestStructure:
    def test_if_successors(self):
        program = parse_program("l0: if x <= 0 then l3\nl1: skip\nl2: halt\nl3: done")
        assert program.successors("l0") == {"l1", "l3"}
        assert program.next_label("l0") == "l1"

    def test_done_has_no_successors(self):
        program = parse_program(MINIMAL)
        assert program.successors("l2") == frozenset()

    def test_straight_line_predecessors(self):
        program = parse_program("l0: skip\nl1: halt\nl2: done")
        assert program.predecessors("l1") == {"l0"}

    def test_goto_successor_is_target(self):
        program = parse_program("l0: goto l2\nl1: skip\nl2: halt\nl3: done")
        assert program.successors("l0") == {"l2"}

    def test_duality_on_loop_program(self):
        program = parse_program(LOOP)
        for l in program.labels:
            for s in program.successors(l):
                assert l in program.predecessors(s)
            for p in program.predecessors(l):
                assert l in program.successors(p)


class TestEval:
    """The tree evaluator that the differential tests' ``reference_step`` is built on."""

    def test_arithmetic(self):
        value, reads = eval_expr(ABin("+", Var("x"), Num(2)), {"x": 3})
        assert value == 5
        assert reads == {"x"}

    def test_boolean(self):
        value, reads = eval_expr(Not(Cmp("<=", Var("x"), Num(1))), {"x": 3})
        assert value is True
        assert reads == {"x"}

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariableError):
            eval_expr(Var("y"), {})

    def test_no_short_circuit_reads_everything(self):
        expr = BBin("or", BoolLit(True), Cmp("=", Var("q"), Num(0)))
        with pytest.raises(UndefinedVariableError):
            eval_expr(expr, {})

    def test_wrapping_multiplication(self):
        big = 2**62
        value, _ = eval_expr(ABin("*", Num(big), Num(4)), {})
        assert value == 0

    def test_wrapping_subtraction(self):
        value, _ = eval_expr(ABin("-", Num(-(2**63)), Num(1)), {})
        assert value == 2**63 - 1


class TestStep:
    def test_assign(self):
        program = parse_program(MINIMAL)
        after = step(program, Configuration.make("l0", {}))
        assert after == Configuration.make("l1", {"x": 1})

    def test_if_false_falls_through(self):
        program = parse_program("l0: if x <= 1 then l2\nl1: skip\nl2: halt\nl3: done")
        after = step(program, Configuration.make("l0", {"x": 3}))
        assert after == Configuration.make("l1", {"x": 3})

    def test_if_true_jumps(self):
        program = parse_program("l0: if x <= 1 then l2\nl1: skip\nl2: halt\nl3: done")
        after = step(program, Configuration.make("l0", {"x": 0}))
        assert after == Configuration.make("l2", {"x": 0})

    def test_stuck_on_undefined_variable(self):
        program = parse_program("l0: y := z\nl1: halt\nl2: done")
        result = step(program, Configuration.make("l0", {}))
        assert isinstance(result, Stuck)
        assert "z" in result.reason

    def test_halt_steps_to_done(self):
        program = parse_program(MINIMAL)
        after = step(program, Configuration.make("l1", {"x": 1}))
        assert after == Configuration.make("l2", {"x": 1})
        assert step(program, after) is AT_DONE

    def test_program_pickles(self):
        program = parse_program(LOOP)
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program
        assert step(copy, Configuration.make("l2", {"x": 5})) == Configuration.make("l3", {"x": 4})

    def test_determinism(self):
        program = parse_program(LOOP)
        config = Configuration.make("l1", {"x": 5})
        assert step(program, config) == step(program, config)


class TestLazyCompilation:
    """A label's transition compiles on its first step, and only then."""

    @pytest.fixture()
    def compiled(self, transitions):
        return transitions.compiled

    def test_building_a_program_compiles_nothing(self, compiled):
        program = parse_program(LOOP)
        Program(program.commands)
        assert compiled == []

    def test_first_step_compiles_once(self, compiled):
        program = parse_program(LOOP)
        config = Configuration.make("l2", {"x": 5})
        after = step(program, config)
        assert compiled == [program.command_at("l2")]
        assert step(program, config) == after == Configuration.make("l3", {"x": 4})
        assert compiled == [program.command_at("l2")]

    def test_a_trace_compiles_each_visited_label_once(self, compiled):
        program = parse_program(
            "l0: x := 2\nl1: x := x - 1\nl2: if 0 <= x then l1\nl3: halt\nl4: done"
        )
        trace = run_trace(program)
        assert trace.kind is TraceKind.COMPLETE and len(trace) > len(program.labels)
        assert compiled == [command for _, command in program.commands]

    def test_stepped_program_pickles_and_steps(self):
        program = parse_program(LOOP)
        trace = run_trace(program)
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program
        assert run_trace(copy) == trace


# three variables, each read where another is written, so a read of the wrong slot shows
SHARED = """
l0: a := 3
l1: b := a + 1
l2: c := b * a - 1
l3: if c <= 20 and not a = 1 then l6
l4: a := a - 1
l5: goto l1
l6: b := b + 1
l7: halt
l8: done
"""


def _nodes(node):
    """``node`` and every node under it."""
    yield node
    for field in dataclasses.fields(node):
        if dataclasses.is_dataclass(child := getattr(node, field.name)):
            yield from _nodes(child)


def _unshared(node):
    """An equal copy of ``node`` that shares no node with anything else."""
    if not dataclasses.is_dataclass(node):
        return node
    return type(node)(*(_unshared(getattr(node, f.name)) for f in dataclasses.fields(node)))


class TestSharing:
    """A ``Program`` shares what repeats; sharing changes no result."""

    def test_parsed_program_holds_one_node_per_leaf_and_one_record_per_obligation(self):
        program = parse_program(SHARED)
        leaves = [node for _, command in program.commands for node in _nodes(command)
                  if isinstance(node, (Var, Num))]
        first: dict = {}
        assert all(first.setdefault(node, node) is node for node in leaves)
        assert len(first) == 6 < len(leaves)  # a, b, c, 1, 3 and 20
        records = [command_obligations(program, label) for label in program.labels]
        assert len({id(record) for record in records}) == len(set(records)) < len(records)
        assert program.variables() == {"a", "b", "c"}

    def test_unshared_equal_nodes_build_an_equal_program(self):
        parsed = parse_program(SHARED)
        built = Program([(label, _unshared(command)) for label, command in parsed.commands])
        assert built == parsed and hash(built) == hash(parsed)
        assert print_program(built) == print_program(parsed)
        assert built.variables() == parsed.variables()
        for label in parsed.labels:
            assert command_obligations(built, label) == command_obligations(parsed, label)
            for state in ({}, {"a": 2}, {"a": 5, "b": -1, "c": 9}):
                config = Configuration.make(label, state)
                assert step(built, config) == reference_step(built, config) == step(parsed, config)
        assert run_trace(built) == run_trace(parsed)

    @pytest.mark.parametrize("flag", [True, False])
    def test_equal_constants_of_two_types_keep_their_own_values(self, flag):
        # the bool's leaf is made first; True == 1 and False == 0, yet x gets an int
        text = f"l0: if {str(flag).lower()} then l1\nl1: x := {int(flag)}\nl2: halt\nl3: done"
        final = run_trace(parse_program(text)).configurations[-1].state_dict()
        assert (final["x"], type(final["x"])) == (int(flag), int)


class TestTrace:
    def test_complete(self):
        trace = run_trace(parse_program(MINIMAL), {})
        assert trace.kind is TraceKind.COMPLETE
        assert len(trace) == 3

    def test_stuck(self):
        trace = run_trace(parse_program("l0: y := x\nl1: halt\nl2: done"), {})
        assert trace.kind is TraceKind.STUCK
        assert trace.configurations[-1].label == "l0"

    def test_truncated(self):
        trace = run_trace(parse_program("l0: goto l0\nl1: halt\nl2: done"), {}, max_steps=100)
        assert trace.kind is TraceKind.TRUNCATED
        assert len(trace) == 101

    def test_loop_counts_down(self):
        trace = run_trace(parse_program(LOOP), {})
        assert trace.kind is TraceKind.COMPLETE
        assert trace.configurations[-1].state_dict() == {"x": 0}

    def test_unmentioned_initial_variables_survive(self):
        trace = run_trace(parse_program(LOOP), {"a": 7, "z": -1})
        assert trace.configurations[1] == Configuration.make("l1", {"a": 7, "x": 10, "z": -1})
        assert trace.configurations[-1].state_dict() == {"a": 7, "x": 0, "z": -1}


class TestInt64Domain:
    """Integers are 64-bit two's complement where they enter: literals and initial values."""

    def test_largest_literal_parses(self):
        program = parse_program(f"l0: x := {2**63 - 1}\nl1: halt\nl2: done")
        assert program.command_at("l0") == Assign("x", Num(2**63 - 1))

    @pytest.mark.parametrize("value", [True, False, 2**63, -(2**63) - 1, 1.0, "1", None])
    def test_integer_literal_holds_a_64_bit_int(self, value):
        # a Num(True) would store x = True, which print_program writes and the parser refuses
        with pytest.raises(ValueError, match="^integer literal is not a 64-bit integer: "):
            Num(value)

    @pytest.mark.parametrize("value", [1, 0, None, "true"])
    def test_boolean_literal_holds_a_bool(self, value):
        with pytest.raises(ValueError, match="^boolean literal is not a bool: "):
            BoolLit(value)

    @pytest.mark.parametrize("literal", [2**63, 99999999999999999999])
    def test_literal_above_the_range_is_a_parse_error(self, literal):
        with pytest.raises(ParseError) as excinfo:
            parse_program(f"l0: skip\nl1: x := 1 + {literal}\nl2: halt\nl3: done")
        with pytest.raises(ParseError) as at_the_literal:
            parse_program("l0: skip\nl1: x := 1 + ?\nl2: halt\nl3: done")
        assert str(excinfo.value).endswith(": integer literal outside the 64-bit range")
        assert (excinfo.value.line, excinfo.value.column) == (2, at_the_literal.value.column)

    @pytest.mark.parametrize("value", [-(2**63), 2**63 - 1])
    def test_extreme_initial_values_run(self, value):
        trace = run_trace(parse_program("l0: y := x + 1\nl1: halt\nl2: done"), {"x": value})
        assert trace.kind is TraceKind.COMPLETE
        assert trace.configurations[-1].state_dict()["y"] == _wrap64(value + 1)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70, True, 1.0, "1"])
    @pytest.mark.parametrize("name", ["x", "unmentioned"])
    def test_initial_value_outside_the_range_is_rejected(self, value, name):
        program = parse_program(LOOP)
        walks = (
            lambda: run_trace(program, {name: value}),
            lambda: list(label_path(program, {name: value})),
            lambda: analyze_concrete(program, {name: value}),
            lambda: check_progress(program, live_variables_oracle(program), {name: value}),
            lambda: step(program, Configuration.make(program.first, {name: value})),
        )
        for walk in walks:
            with pytest.raises(ValueError, match=f"initial value of '{name}' is not a 64-bit integer"):
                walk()

    def test_recorded_path_is_not_replayed_for_an_equal_bool(self):
        program = parse_program("l0: y := x\nl1: halt\nl2: done")
        assert list(label_path(program, {"x": 1}))[-1][1:] == ("l2", AT_DONE)
        with pytest.raises(ValueError):
            list(label_path(program, {"x": True}))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])


def _aexps(depth=2):
    base = st.one_of(st.integers(0, 99).map(Num), _names.map(Var))
    return st.recursive(
        base,
        lambda children: st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: ABin(*t)
        ),
        max_leaves=8,
    )


def _bexps():
    base = st.one_of(
        st.booleans().map(BoolLit),
        st.tuples(st.sampled_from(["=", "<="]), _aexps(), _aexps()).map(lambda t: Cmp(*t)),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(st.sampled_from(["and", "or"]), children, children).map(
                lambda t: BBin(*t)
            ),
        ),
        max_leaves=6,
    )


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 6))
    labels = [f"l{i}" for i in range(n + 2)]
    body = []
    for i in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append((labels[i], Skip()))
        elif kind == 1:
            body.append((labels[i], Assign(draw(_names), draw(_aexps()))))
        elif kind == 2:
            body.append((labels[i], If(draw(_bexps()), draw(st.sampled_from(labels)))))
        else:
            body.append((labels[i], Goto(draw(st.sampled_from(labels)))))
    body.append((labels[n], Halt()))
    body.append((labels[n + 1], Done()))
    return Program(body)


@given(_programs())
@settings(max_examples=200, deadline=None)
def test_parser_round_trip(program):
    assert parse_program(print_program(program)) == program


@pytest.mark.parametrize("value", [-5, -1, -(2**63)])
def test_negative_literal_prints_as_a_subtraction_that_parses(value):
    # the grammar has no negative literal, so a hand-built Num(-5) prints as 0 - 5
    exprs = [Num(value), ABin("-", Var("x"), Num(value)), ABin("*", Num(value), Var("x")),
             ABin("+", Num(value), Num(value))]
    program = Program([*((f"l{k}", Assign("x", e)) for k, e in enumerate(exprs)),
                       ("l4", Halt()), ("l5", Done())])
    parsed = parse_program(print_program(program))
    for (_, built), (_, printed) in zip(program.commands[:4], parsed.commands):
        assert eval_expr(printed.expr, {"x": 3}) == eval_expr(built.expr, {"x": 3})


@given(_aexps(), st.dictionaries(_names, st.integers(-100, 100), min_size=4))
@settings(max_examples=200, deadline=None)
def test_eval_matches_direct_recursion(expr, state):
    def direct(e):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Var):
            return state[e.name]
        a, b = direct(e.left), direct(e.right)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op]

    value, reads = eval_expr(expr, state)
    assert value == direct(expr)
    assert reads == expr_vars(expr)


@given(_programs())
@settings(max_examples=150, deadline=None)
def test_successor_predecessor_duality(program):
    for l in program.labels:
        for other in program.labels:
            assert (other in program.successors(l)) == (l in program.predecessors(other))


@given(_programs(), st.dictionaries(_names, st.integers(-5, 5), min_size=4))
@settings(max_examples=100, deadline=None)
def test_step_is_deterministic(program, state):
    config = Configuration.make(program.first, state)
    first = step(program, config)
    second = step(program, config)
    assert first == second or (isinstance(first, (Stuck, AtDone)) and first == second)


# Fragments of the grammar, some stray characters, and Unicode digits that
# str.isdigit() accepts but int() does not (or reads as other digits).
_FRAGMENTS = [
    "l0", "l1", "l2", "x", "y", ":", ":=", " ", "\n", "#", "if", "then", "goto",
    "halt", "done", "skip", "not", "and", "or", "true", "false", "(", ")", "+",
    "-", "*", "=", "<=", "<", "0", "7", "99999999999999999999", "\u00b2", "\u0661", "\t",
]


@given(st.one_of(st.text(), st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)))
@example("l0: x := \u00b2\nl1: halt\nl2: done")
@example("l0: x := " + "1" * 5000 + "\nl1: halt\nl2: done")
@example("l0: x := " + "(" * 400 + "1" + ")" * 400 + "\nl1: goto l0")
@example("l0: if " + "not " * 400 + "true then l0\nl1: goto l0")
@settings(max_examples=500, deadline=None)
def test_parser_raises_only_its_own_errors(text):
    try:
        parse_program(text)
    except (ParseError, ProgramStructureError):
        pass


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_random_program_round_trip(seed):
    program = random_program(random.Random(seed))
    assert parse_program(print_program(program)) == program
