"""The prophecy-extended semantics and its checkers.

``check_preservation`` and ``check_progress`` share one walk that
evaluates each standard step once.  The two checkers it replaced, which
each built an extended step with ``ext_step_with_results`` and compared it
with a second ``step``, are kept here as the reference: ``TestExtStep`` and
``TestMonotonicity`` test the reference extended step, and a hypothesis
differential test compares the reference reports with the walk's.  The
walk checks only the distinct steps ``label_path`` yields and replays the
entries a ``Program`` recorded; another hypothesis test compares every
caller of it on a warm program with a fresh copy, and a third compares
the engine and both checkers with the per-position walks they replaced.
"""

import pickle
import random
from dataclasses import dataclass
from itertools import count
from types import SimpleNamespace
from typing import Union
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophecy import extended
from prophecy.core_lang import (
    AtDone,
    Configuration,
    Program,
    Stuck,
    execution,
    parse_program,
    run_trace,
    step,
)
from prophecy.engine import (
    AnalysisError,
    ProgramStuckError,
    RunStats,
    StepBudgetExceeded,
    analyze_concrete,
    empty_results,
    live_variables_oracle,
    solve,
)
from prophecy.extended import (
    CheckReport,
    Violation,
    check_preservation,
    check_progress,
    command_obligations,
)
from randprog import VARS, random_program, random_state
from test_differential import record_constraint, reference_step

LOOP = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""


@dataclass(frozen=True)
class ExtOk:
    next: Configuration


@dataclass(frozen=True)
class PreconditionViolation:
    label: str
    missing: frozenset


@dataclass(frozen=True)
class PredictionViolation:
    label: str
    next_label: str
    excess: frozenset


@dataclass(frozen=True)
class ExtStuck:
    reason: str


@dataclass(frozen=True)
class ExtAtDone:
    pass


ExtStepOutcome = Union[ExtOk, PreconditionViolation, PredictionViolation, ExtStuck, ExtAtDone]


def ext_step_with_results(program, config, results) -> ExtStepOutcome:
    """One extended step with predictions taken from analysis results.

    The prediction before the step is ``results[config.label]`` and the
    prediction after comes from the label the standard step reaches.  The
    step succeeds iff the standard step succeeds, the precondition holds,
    and the successor's result adds nothing beyond the allowed extra.
    """
    label = config.label
    obligations = command_obligations(program, label)
    current = results[label]
    missing = obligations.precondition - current
    if missing:
        return PreconditionViolation(label, missing)
    outcome = step(program, config)
    if isinstance(outcome, AtDone):
        return ExtAtDone()
    if isinstance(outcome, Stuck):
        return ExtStuck(outcome.reason)
    nxt = outcome.label
    excess = results[nxt] - (current | obligations.prediction_extra)
    if excess:
        return PredictionViolation(label, nxt, excess)
    return ExtOk(outcome)


def _stopped_note(outcome, label) -> str:
    """The note for an extended execution that stopped early, in the checkers' wording."""
    if isinstance(outcome, PreconditionViolation):
        violation = Violation("precondition", outcome.label, outcome.missing)
    elif isinstance(outcome, PredictionViolation):
        violation = Violation("prediction", outcome.label, outcome.excess, outcome.next_label)
    else:
        violation = Violation("stuck", label, detail=outcome.reason)
    return f"extended execution stopped: {violation.describe()}"


def _truncated(check, config, checked, notes):
    violation = Violation("truncated", config.label, detail=f"no done within {checked} steps")
    return CheckReport(check, False, checked, violation, tuple(notes))


def reference_preservation(program, results, initial_state=None, max_steps=10_000):
    """Replay the extended execution; every ok step must project onto a standard step."""
    config = Configuration.make(program.first, initial_state or {})
    notes = []
    for checked in count():
        outcome = ext_step_with_results(program, config, results)
        if isinstance(outcome, ExtAtDone):
            notes.append("extended execution complete")
            break
        if not isinstance(outcome, ExtOk):
            notes.append(_stopped_note(outcome, config.label))
            break
        if checked >= max_steps:
            return _truncated("preservation", config, checked, notes)
        standard = step(program, config)
        if not isinstance(standard, Configuration) or standard != outcome.next:
            violation = Violation(
                kind="projection",
                label=config.label,
                detail=f"extended step reached {outcome.next} but standard semantics give {standard!r}",
            )
            return CheckReport("preservation", False, checked, violation, tuple(notes))
        config = outcome.next
    return CheckReport("preservation", True, checked, None, tuple(notes))


def reference_progress(program, results, initial_state=None, max_steps=10_000):
    """Along the standard execution, every step must have an extended counterpart."""
    config = Configuration.make(program.first, initial_state or {})
    notes = []
    for checked in count():
        standard = step(program, config)
        if isinstance(standard, AtDone):
            notes.append("standard execution complete")
            break
        if isinstance(standard, Stuck):
            violation = Violation("stuck", config.label, detail=standard.reason)
            return CheckReport("progress", False, checked, violation, tuple(notes))
        if checked >= max_steps:
            return _truncated("progress", config, checked, notes)
        outcome = ext_step_with_results(program, config, results)
        if isinstance(outcome, PreconditionViolation):
            violation = Violation("precondition", outcome.label, outcome.missing)
            return CheckReport("progress", False, checked, violation, tuple(notes))
        if isinstance(outcome, PredictionViolation):
            violation = Violation(
                "prediction", outcome.label, outcome.excess, next_label=outcome.next_label
            )
            return CheckReport("progress", False, checked, violation, tuple(notes))
        if not isinstance(outcome, ExtOk) or outcome.next != standard:
            violation = Violation(
                kind="projection",
                label=config.label,
                detail=f"extended semantics produced {outcome!r} for standard step to {standard}",
            )
            return CheckReport("progress", False, checked, violation, tuple(notes))
        config = standard
    return CheckReport("progress", True, checked, None, tuple(notes))


def loop_fixpoint():
    program = parse_program(LOOP)
    results, _ = analyze_concrete(program)
    return program, results


class TestObligations:
    def test_assign_reads_and_writes(self):
        program = parse_program("l0: x := y + z\nl1: halt\nl2: done")
        ob = command_obligations(program, "l0")
        assert ob.precondition == {"y", "z"}
        assert ob.prediction_extra == {"x"}

    def test_if_reads_only(self):
        program = parse_program("l0: if y <= 0 then l1\nl1: halt\nl2: done")
        ob = command_obligations(program, "l0")
        assert ob.precondition == {"y"}
        assert ob.prediction_extra == frozenset()

    def test_skip_goto_halt_empty(self):
        program = parse_program("l0: skip\nl1: goto l2\nl2: halt\nl3: done")
        for label in ("l0", "l1", "l2", "l3"):
            ob = command_obligations(program, label)
            assert ob.precondition == frozenset()
            assert ob.prediction_extra == frozenset()

    def test_obligation_matches_actual_reads(self):
        # soundness: the precondition is exactly what evaluation reads
        from prophecy.core_lang import Assign, If, expr_vars

        program = parse_program(LOOP)
        for label in program.labels:
            command = program.command_at(label)
            match command:
                case Assign(_, expr) | If(expr, _):
                    reads = expr_vars(expr)
                case _:
                    reads = frozenset()
            assert command_obligations(program, label).precondition == reads
            if isinstance(command, Assign):
                assert command_obligations(program, label).prediction_extra == {command.var}

    def test_obligation_soundness_against_evaluation(self):
        # every variable in the precondition is read whenever the step runs
        import random

        from prophecy.core_lang import Assign, If
        from randprog import random_program, random_state
        from test_differential import eval_expr

        rng = random.Random(99)
        for _ in range(50):
            program = random_program(rng, max_body=10, max_vars=4)
            state = random_state(rng, program)
            for label in program.labels:
                command = program.command_at(label)
                if isinstance(command, Assign):
                    _, reads = eval_expr(command.expr, state)
                elif isinstance(command, If):
                    _, reads = eval_expr(command.cond, state)
                else:
                    reads = frozenset()
                assert reads == command_obligations(program, label).precondition


class TestExtStep:
    def test_ok_step(self):
        program = parse_program("l0: skip\nl1: y := x\nl2: halt\nl3: done")
        results = {"l0": frozenset({"x"}), "l1": frozenset({"x"}), "l2": frozenset(), "l3": frozenset()}
        outcome = ext_step_with_results(program, Configuration.make("l1", {"x": 1}), results)
        assert isinstance(outcome, ExtOk)
        assert outcome.next == Configuration.make("l2", {"x": 1, "y": 1})

    def test_precondition_violation_reports_missing(self):
        program = parse_program("l0: skip\nl1: y := x\nl2: halt\nl3: done")
        results = {l: frozenset() for l in program.labels}
        outcome = ext_step_with_results(program, Configuration.make("l1", {"x": 1}), results)
        assert outcome == PreconditionViolation("l1", frozenset({"x"}))

    def test_prediction_violation_reports_excess(self):
        program = parse_program("l0: skip\nl1: x := 1\nl2: skip\nl3: goto l1\nl4: halt\nl5: done")
        results = {l: frozenset() for l in program.labels}
        results["l1"] = frozenset({"x"})
        outcome = ext_step_with_results(program, Configuration.make("l3", {}), results)
        assert outcome == PredictionViolation("l3", "l1", frozenset({"x"}))

    def test_stuck_propagates(self):
        program = parse_program("l0: y := x\nl1: halt\nl2: done")
        results = {"l0": frozenset({"x"}), "l1": frozenset(), "l2": frozenset()}
        outcome = ext_step_with_results(program, Configuration.make("l0", {}), results)
        assert isinstance(outcome, ExtStuck)

    def test_at_done(self):
        program = parse_program("l0: halt\nl1: done")
        results = {"l0": frozenset(), "l1": frozenset()}
        outcome = ext_step_with_results(program, Configuration.make("l1", {}), results)
        assert isinstance(outcome, ExtAtDone)


class TestPreservation:
    def test_passes_with_computed_results(self):
        program, results = loop_fixpoint()
        report = check_preservation(program, results)
        assert report.passed

    def test_passes_with_arbitrary_results(self):
        # preservation does not depend on the results being right
        program = parse_program(LOOP)
        junk = {l: frozenset({"x", "q"}) for l in program.labels}
        assert check_preservation(program, junk).passed
        empty = {l: frozenset() for l in program.labels}
        assert check_preservation(program, empty).passed


class TestProgress:
    def test_fixpoint_passes(self):
        program, results = loop_fixpoint()
        report = check_progress(program, results)
        assert report.passed
        assert report.steps_checked > 30

    def test_removing_live_variable_breaks_precondition(self):
        program, results = loop_fixpoint()
        broken = dict(results)
        broken["l1"] = frozenset()
        report = check_progress(program, broken)
        assert not report.passed
        assert report.violation.kind == "precondition"
        assert report.violation.label == "l1"
        assert report.violation.witness == {"x"}

    def test_junk_variable_breaks_prediction_on_incoming_edge(self):
        program, results = loop_fixpoint()
        broken = dict(results)
        broken["l1"] = results["l1"] | {"q"}
        report = check_progress(program, broken)
        assert not report.passed
        assert report.violation.kind == "prediction"
        assert report.violation.next_label == "l1"
        assert report.violation.witness == {"q"}

    def test_oracle_results_also_pass(self):
        program = parse_program(LOOP)
        report = check_progress(program, live_variables_oracle(program))
        assert report.passed


class TestTruncation:
    """A check that runs out of steps before ``done`` is not a pass."""

    SPIN = "l0: x := 1\nl1: goto l1\nl2: done"

    @pytest.mark.parametrize("check", [check_preservation, check_progress])
    def test_budget_exhausted_is_not_a_pass(self, check):
        program = parse_program(self.SPIN)
        results = {label: frozenset() for label in program.labels}
        report = check(program, results, None, 50)
        assert not report.passed
        assert report.steps_checked == 50
        assert report.violation.kind == "truncated"
        assert report.violation.label == "l1"
        assert "truncated" in str(report)

    @pytest.mark.parametrize("check", [check_preservation, check_progress])
    def test_done_in_exactly_max_steps_passes(self, check):
        program, results = loop_fixpoint()
        steps = len(run_trace(program)) - 1
        exact = check(program, results, None, steps)
        assert exact.passed and exact.steps_checked == steps
        short = check(program, results, None, steps - 1)
        assert not short.passed and short.violation.kind == "truncated"


def _verdict(caller, program, max_steps):
    """How ``caller`` reports the execution within ``max_steps``: complete, stuck or truncated."""
    if caller == "run_trace":
        return run_trace(program, {}, max_steps).kind.value
    if caller == "analyze_concrete":
        try:
            analyze_concrete(program, {}, max_steps)
        except ProgramStuckError:
            return "stuck"
        except StepBudgetExceeded:
            return "truncated"
        return "complete"
    check = check_preservation if caller == "check_preservation" else check_progress
    report = check(program, live_variables_oracle(program), {}, max_steps)
    if report.violation is not None:
        return report.violation.kind
    (note,) = report.notes
    stopped = "extended execution stopped: "
    return note[len(stopped) :].split()[0] if note.startswith(stopped) else "complete"


class TestBudgetBoundary:
    """``max_steps`` N allows N transitions, by one rule for every caller."""

    CALLERS = ["run_trace", "analyze_concrete", "check_preservation", "check_progress"]

    @staticmethod
    def _program(lines):
        return parse_program("\n".join(f"l{k}: {line}" for k, line in enumerate(lines)))

    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_done_stuck_and_past_budget_at_n_transitions(self, caller, n):
        done_at_n = self._program(["skip"] * (n - 1) + ["halt", "done"])
        stuck_at_n = self._program([f"x := {k}" for k in range(n)] + ["y := z", "halt", "done"])
        needs_n_plus_1 = self._program(["skip"] * n + ["halt", "done"])
        assert _verdict(caller, done_at_n, n) == "complete"
        assert _verdict(caller, stuck_at_n, n) == "stuck"
        assert _verdict(caller, needs_n_plus_1, n) == "truncated"


class TestMonotonicity:
    """Enlarging one label's result only trades violation kinds, predictably."""

    def test_enlarging_removes_precondition_and_adds_prediction_violations(self):
        program, results = loop_fixpoint()
        config = Configuration.make("l1", {"x": 4})

        smaller = dict(results)
        smaller["l1"] = frozenset()
        assert isinstance(ext_step_with_results(program, config, smaller), PreconditionViolation)

        larger = dict(smaller)
        larger["l1"] = frozenset({"x", "q"})
        assert isinstance(ext_step_with_results(program, config, larger), ExtOk)

        # but an edge into l1 whose extra cannot absorb q now violates
        back_edge = Configuration.make("l3", {"x": 4})
        outcome = ext_step_with_results(program, back_edge, larger)
        assert isinstance(outcome, PredictionViolation)
        assert outcome.excess == {"q"}

    def test_report_renders_text_and_records(self):
        program, results = loop_fixpoint()
        broken = dict(results)
        broken["l2"] = frozenset()
        report = check_progress(program, broken)
        assert "precondition violation at l2" in str(report)
        record = report.to_record()
        assert record["passed"] is False
        assert record["violation"]["label"] == "l2"
        assert record["violation"]["witness"] == ["x"]


TABLES = ("computed", "oracle", "empty", "perturbed")


def _table(kind, program, state, rng):
    """A prediction table: the analysis of this execution, the oracle, all empty, or perturbed.

    An execution that gets stuck or runs past the budget has no computed
    table; the oracle stands in for it.
    """
    if kind == "empty":
        return {label: frozenset() for label in program.labels}
    if kind == "oracle":
        return live_variables_oracle(program)
    try:
        computed, _ = analyze_concrete(program, state)
    except AnalysisError:
        computed = live_variables_oracle(program)
    if kind == "perturbed":
        label = rng.choice(program.labels)
        computed = {**computed, label: computed[label] ^ {rng.choice(VARS)}}
    return computed


def _case(seed, drop):
    rng = random.Random(seed)
    program = random_program(rng)
    state = random_state(rng, program)
    if drop and state:
        del state[rng.choice(sorted(state))]  # likely stuck on the dropped variable
    return rng, program, state


BUDGETS = [0, 1, 2, 3, 4, 5, 6, 10_000]


@given(st.integers(0, 2**32), st.sampled_from(TABLES), st.sampled_from(BUDGETS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_walk_matches_reference_checkers(seed, table, max_steps, drop):
    rng, program, state = _case(seed, drop)
    results = _table(table, program, state, rng)
    args = (program, results, state, max_steps)
    assert check_preservation(*args) == reference_preservation(*args)
    assert check_progress(*args) == reference_progress(*args)


def test_walk_matches_reference_checkers_on_every_outcome():
    """A seeded sweep that reaches every verdict, violation kind and note of both checkers."""
    seen = set()
    for seed in range(60):
        for drop in (False, True):
            rng, program, state = _case(seed, drop)
            for table in TABLES:
                results = _table(table, program, state, rng)
                for max_steps in BUDGETS:
                    args = (program, results, state, max_steps)
                    for check, reference in (
                        (check_preservation, reference_preservation),
                        (check_progress, reference_progress),
                    ):
                        report = check(*args)
                        assert report == reference(*args)
                        kind = report.violation.kind if report.violation else None
                        notes = tuple(note.split(":")[0] for note in report.notes)
                        seen.add((report.check, report.passed, kind, notes))
    assert seen >= {
        ("preservation", True, None, ("extended execution complete",)),
        ("preservation", True, None, ("extended execution stopped",)),
        ("preservation", False, "truncated", ()),
        ("progress", True, None, ("standard execution complete",)),
        ("progress", False, "precondition", ()),
        ("progress", False, "prediction", ()),
        ("progress", False, "stuck", ()),
        ("progress", False, "truncated", ()),
    }


def _last_position(program, state, max_steps):
    """Where the standard execution stops within ``max_steps``, by the uncompiled reference rules."""
    config = Configuration.make(program.first, state or {})
    for position in range(max_steps):
        config = reference_step(program, config)
        if not isinstance(config, Configuration):
            return position
    return max_steps


def run_trace_positions(program, results, state, max_steps):
    """``run_trace``, with its last position as ``steps_checked``."""
    return SimpleNamespace(steps_checked=len(run_trace(program, state, max_steps)) - 1)


def analyze_concrete_positions(program, results, state, max_steps):
    """``analyze_concrete``, with the last position of its execution as ``steps_checked``."""
    try:
        analyze_concrete(program, state, max_steps)
    except StepBudgetExceeded:
        pass
    return SimpleNamespace(steps_checked=_last_position(program, state, max_steps))


class TestStepCost:
    """Each caller of ``execution`` evaluates every standard step once, plus the one where it stops."""

    @pytest.mark.parametrize(
        "check",
        [check_preservation, check_progress, run_trace_positions, analyze_concrete_positions],
    )
    @pytest.mark.parametrize("table", TABLES)
    def test_one_step_per_position(self, transitions, check, table):
        calls = transitions.calls
        program, results = loop_fixpoint()
        if table != "computed":
            results = _table(table, program, {}, random.Random(1))
        for max_steps in (0, 3, 10_000):
            calls.clear()
            report = check(program, results, None, max_steps)
            assert calls  # the counted transitions are the ones the caller reaches
            assert len(calls) <= report.steps_checked + 1


# Programs whose executions get stuck or never reach done, beside the random ones.
FIXED = (
    "l0: x := 1\nl1: goto l1\nl2: done",
    "l0: x := 3\nl1: x := x - 1\nl2: if 0 <= x then l1\nl3: y := z\nl4: halt\nl5: done",
)
CALLS = ("analyze", "preservation", "progress", "failing")


def _fresh(program):
    """An equal program that has walked nothing yet."""
    return Program(program.commands)


def _call(kind, program, state, max_steps):
    """One caller of ``label_path``, its outcome as a comparable value."""
    if kind == "analyze":
        try:
            return analyze_concrete(program, state, max_steps)
        except AnalysisError as exc:
            return type(exc).__name__, str(exc)
    if kind == "failing":
        # fails the first guard that reads a variable
        table = {label: frozenset() for label in program.labels}
        check = check_progress
    else:
        table = live_variables_oracle(program)
        check = check_preservation if kind == "preservation" else check_progress
    report = check(program, table, state, max_steps)
    return report.to_record(), report.notes


@given(
    st.integers(0, 2**32),
    st.sampled_from((None,) + FIXED),
    st.lists(
        st.tuples(st.sampled_from(CALLS), st.integers(0, 3), st.sampled_from([0, 3, 10_000])),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=200, deadline=None)
def test_warm_program_matches_fresh_program(seed, text, calls):
    """Each caller on one program, in any order, reports what it reports on a fresh copy."""
    rng = random.Random(seed)
    program = random_program(rng) if text is None else parse_program(text)
    full = random_state(rng, program)
    dropped = dict(full)
    if dropped:
        del dropped[rng.choice(sorted(dropped))]
    states = [full, dropped, {}, random_state(rng, program)]
    for kind, which, max_steps in calls:
        state = states[which]
        assert _call(kind, program, state, max_steps) == _call(kind, _fresh(program), state, max_steps)


# The per-position walks that the distinct-step walk of ``label_path`` replaced.


def _positions(program, state, max_steps):
    """Every position's label and what its step reached."""
    return [(label, reached) for label, reached, _ in execution(program, state, max_steps)]


def _check_positions_from(program, labels, cursor, results, constraints, repair_constraints):
    """The engine's check walk over every position: the reads, then the edge to the next label."""
    while cursor < len(labels):
        label = labels[cursor]
        obligations = command_obligations(program, label)
        missing = obligations.precondition - results[label]
        if missing:
            results[label] |= missing
            solve(label, results, constraints)
            return cursor, "precondition"
        extra = obligations.prediction_extra
        for successor in labels[cursor + 1 : cursor + 2]:
            if not record_constraint(constraints, label, successor, extra):
                continue
            if repair_constraints and (excess := results[successor] - extra - results[label]):
                results[label] |= excess
                solve(label, results, constraints)
                return cursor, "constraint"
        cursor += 1
    return cursor, None


def reference_analyze_concrete(program, state=None, max_steps=10_000, *, strict_paper=False):
    """``analyze_concrete`` over every position, each rerun resuming where the last one aborted."""
    path = _positions(program, state, max_steps)
    label, reached = path[-1]
    if isinstance(reached, Stuck):
        raise ProgramStuckError(label, reached.reason)
    if isinstance(reached, str):
        raise StepBudgetExceeded(max_steps)
    labels = [label for label, _ in path]
    results, constraints = empty_results(program), {}
    repairs = {"precondition": 0, "constraint": 0}
    cursor = 0
    for _ in range(len(program.labels) * max(1, len(program.variables())) + 2):
        cursor, kind = _check_positions_from(
            program, labels, cursor, results, constraints, not strict_paper
        )
        if kind is None:
            runs = repairs["precondition"] + repairs["constraint"] + 1
            return results, RunStats(runs, repairs["precondition"], repairs["constraint"])
        repairs[kind] += 1
    raise AssertionError("rerun ceiling exceeded")


def reference_walk(program, results, initial_state, max_steps):
    """The checkers' walk over every position: both guards at each one, until one fails."""
    failed = None
    for checked, (label, reached) in enumerate(_positions(program, initial_state, max_steps)):
        obligations = command_obligations(program, label)
        current = results[label]
        if missing := obligations.precondition - current:
            failed = Violation("precondition", label, missing)
            break
        if isinstance(reached, str):
            if excess := results[reached] - current - obligations.prediction_extra:
                failed = Violation("prediction", label, excess, next_label=reached)
                break
    return checked, label, reached, failed


def _analysis(analyze, program, state, max_steps, strict_paper):
    try:
        return analyze(program, state, max_steps, strict_paper=strict_paper)
    except AnalysisError as exc:
        return type(exc).__name__, str(exc)


def _report(check, program, results, state, max_steps):
    report = check(program, results, state, max_steps)
    return report.to_record(), report.notes


def _reference_report(check, program, results, state, max_steps):
    with mock.patch.object(extended, "_walk", reference_walk):
        return _report(check, program, results, state, max_steps)


@given(
    st.integers(0, 2**32),
    st.sampled_from((None,) + FIXED),
    st.integers(0, 3),
    st.sampled_from([0, 3, 10_000]),
)
@settings(max_examples=200, deadline=None)
def test_distinct_steps_match_per_position_walks(seed, text, which, max_steps):
    """Checking each distinct step once reports what checking every position reports.

    Every call runs first on its own fresh program, whose walk is cold,
    then all of them in turn on one program, which replays the walk the
    first of them to reach the end recorded.
    """
    rng = random.Random(seed)
    program = random_program(rng) if text is None else parse_program(text)
    full = random_state(rng, program)
    dropped = dict(full)
    if dropped:
        del dropped[rng.choice(sorted(dropped))]
    state = [full, dropped, {}, random_state(rng, program)][which]
    tables = (
        live_variables_oracle(program),
        {label: frozenset() for label in program.labels},
        _table(rng.choice(TABLES), _fresh(program), state, rng),
    )
    calls, expected = [], []
    for strict_paper in (False, True):
        args = (state, max_steps, strict_paper)
        calls.append(lambda subject, args=args: _analysis(analyze_concrete, subject, *args))
        expected.append(_analysis(reference_analyze_concrete, program, *args))
    for results in tables:
        for check in (check_preservation, check_progress):
            args = (check, results, state, max_steps)
            calls.append(lambda subject, args=args: _report(args[0], subject, *args[1:]))
            expected.append(_reference_report(check, program, results, state, max_steps))
    assert [call(_fresh(program)) for call in calls] == expected
    assert [call(program) for call in calls] == expected


class TestLookupCost:
    """A warm checker looks up obligations once per distinct step, plus the last position."""

    @pytest.mark.parametrize("check", [check_preservation, check_progress])
    @pytest.mark.parametrize("table", TABLES)
    def test_warm_checker_looks_up_each_distinct_step(self, lookups, check, table):
        program, results = loop_fixpoint()
        if table != "computed":
            results = _table(table, program, {}, random.Random(1))
        labels = [config.label for config in run_trace(program).configurations]
        distinct = len(set(zip(labels, labels[1:])))
        lookups.extended.clear()
        check(program, results)
        assert lookups.extended
        assert len(lookups.extended) <= distinct + 1 < len(labels)


class TestRecordedPath:
    """The engine and the checkers evaluate one standard execution once per program."""

    @pytest.fixture
    def steps(self, transitions):
        return transitions.calls

    def test_analysis_and_checks_step_once(self, steps):
        program = parse_program(LOOP)
        positions = len(run_trace(program))
        steps.clear()
        results, _ = analyze_concrete(program)
        preservation = check_preservation(program, results)
        progress = check_progress(program, results)
        assert len(steps) == positions
        assert preservation.passed and progress.passed
        assert preservation.steps_checked == progress.steps_checked == positions - 1

    def test_other_key_steps_again(self, steps):
        program, results = loop_fixpoint()
        steps.clear()
        check_progress(program, results, {"x": 2})
        assert steps
        steps.clear()
        check_progress(program, results, None, 5)
        assert len(steps) == 6

    def test_walk_stopped_by_a_guard_records_nothing(self, steps):
        program = parse_program(LOOP)
        results = live_variables_oracle(program)
        broken = {**results, "l2": frozenset()}
        report = check_progress(program, broken)
        assert report.violation.kind == "precondition"
        assert len(steps) == report.steps_checked + 1  # no step past the failed guard
        steps.clear()
        assert check_progress(program, results).passed
        assert len(steps) == len(run_trace(program))

    @pytest.mark.parametrize("copy", ["reparsed", "pickled"])
    def test_equal_program_steps_again(self, steps, copy):
        program, results = loop_fixpoint()
        other = parse_program(LOOP) if copy == "reparsed" else pickle.loads(pickle.dumps(program))
        assert other == program and other is not program
        steps.clear()
        assert check_progress(program, results).passed
        assert not steps  # replayed
        assert check_progress(other, results).passed
        assert len(steps) == len(run_trace(program))

    @pytest.mark.parametrize(
        "call",
        [
            lambda program, results: analyze_concrete(program, None, -1),
            lambda program, results: check_preservation(program, results, None, -1),
            lambda program, results: check_progress(program, results, None, -1),
            lambda program, results: run_trace(program, None, -1),
        ],
    )
    def test_negative_budget_raises_on_warm_program(self, call):
        program, results = loop_fixpoint()
        assert check_progress(program, results).passed
        with pytest.raises(ValueError, match="max_steps"):
            call(program, results)
