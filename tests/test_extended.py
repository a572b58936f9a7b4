import pytest

from prophecy.core_lang import Configuration, parse_program, run_trace
from prophecy.engine import analyze_concrete, live_variables_oracle
from prophecy.extended import (
    ExtAtDone,
    ExtOk,
    ExtStuck,
    PreconditionViolation,
    PredictionViolation,
    check_preservation,
    check_progress,
    command_obligations,
    ext_step_with_results,
)

LOOP = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""


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
        from prophecy.core_lang import Assign, If, command_vars

        program = parse_program(LOOP)
        for label in program.labels:
            command = program.command_at(label)
            assert command_obligations(program, label).precondition == command_vars(command)
            if isinstance(command, Assign):
                assert command_obligations(program, label).prediction_extra == {command.var}

    def test_obligation_soundness_against_evaluation(self):
        # every variable in the precondition is read whenever the step runs
        import random

        from prophecy.core_lang import Assign, If, eval_expr
        from randprog import random_program, random_state

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
