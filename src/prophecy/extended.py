"""Prophecy-extended semantics for live-variable prediction, plus checkers.

The extended semantics augments each configuration with a predicted set of
live variables.  Two kinds of obligations attach to every transition out of
a command (``StepObligations``, which ``core_lang`` computes once per label
when the program is built; this module re-exports it with
``command_obligations``):

* a precondition: every variable the command reads must already be in the
  current prediction;
* a prediction constraint: the next prediction may only add the variable the
  command assigns (nothing, for commands that assign nothing).

For checking we substitute computed analysis results for the predictions:
the prediction before label ``l`` is ``results[l]``.  An extended step is
then deterministic and either mirrors the standard step or reports exactly
which inclusion failed and by which elements.

``check_preservation`` asserts extended steps introduce no new behavior
(each projects onto the standard step); ``check_progress`` asserts the
analysis results let the extended semantics follow every standard step.
When both pass, standard and extended configurations simulate each other
along the checked execution.  A check whose step budget runs out before
``done`` does not pass: it reports a ``truncated`` violation at the label
where it stopped, by the rule ``run_trace`` uses for a complete trace.
Progress also fails with a ``stuck`` violation when the standard execution
gets stuck (an undefined variable): there is no step for the results to
follow, and the analyzed execution did not run to ``done``.  Preservation
is unaffected, as an extended run that stops early cannot break it.  Both
checkers keep their two step calls per checked step; each is a lookup of
the label's compiled transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Mapping, Union

from .core_lang import (
    AtDone,
    Configuration,
    Label,
    Program,
    State,
    StepObligations,  # re-exported with command_obligations and VarSet
    Stuck,
    VarSet,
    command_obligations,
    step,
)

AnalysisResults = Mapping[Label, VarSet]


# --------------------------------------------------------------------------
# Extended step
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtOk:
    next: Configuration


@dataclass(frozen=True)
class PreconditionViolation:
    label: Label
    missing: VarSet


@dataclass(frozen=True)
class PredictionViolation:
    label: Label
    next_label: Label
    excess: VarSet


@dataclass(frozen=True)
class ExtStuck:
    reason: str


@dataclass(frozen=True)
class ExtAtDone:
    pass


ExtStepOutcome = Union[ExtOk, PreconditionViolation, PredictionViolation, ExtStuck, ExtAtDone]


def ext_step_with_results(
    program: Program, config: Configuration, results: AnalysisResults
) -> ExtStepOutcome:
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


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # precondition | prediction | projection | truncated | stuck
    label: Label
    witness: VarSet = frozenset()
    next_label: Label | None = None
    detail: str = ""

    def describe(self) -> str:
        witness = "{" + ", ".join(sorted(self.witness)) + "}"
        if self.kind == "precondition":
            return f"precondition violation at {self.label}: missing {witness}"
        if self.kind == "prediction":
            return (
                f"prediction violation on edge {self.label} -> {self.next_label}:"
                f" excess {witness}"
            )
        if self.kind in ("truncated", "stuck"):
            return f"{self.kind} at {self.label}: {self.detail}"
        return f"projection failure at {self.label}: {self.detail}"

    def to_record(self) -> dict:
        record = {"kind": self.kind, "label": self.label, "witness": sorted(self.witness)}
        if self.next_label is not None:
            record["next_label"] = self.next_label
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass(frozen=True)
class CheckReport:
    check: str  # preservation | progress
    passed: bool
    steps_checked: int
    violation: Violation | None = None
    notes: tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = f"{self.check}: {status} ({self.steps_checked} steps checked)"
        if self.violation is not None:
            head += "\n  " + self.violation.describe()
        for note in self.notes:
            head += f"\n  note: {note}"
        return head

    def to_record(self) -> dict:
        record = {"check": self.check, "passed": self.passed, "steps_checked": self.steps_checked}
        if self.violation is not None:
            record["violation"] = self.violation.to_record()
        return record


def _truncated(check: str, config: Configuration, checked: int, notes: list[str]) -> CheckReport:
    """Budget ran out before ``done``: the rest of the execution went unchecked."""
    violation = Violation("truncated", config.label, detail=f"no done within {checked} steps")
    return CheckReport(check, False, checked, violation, tuple(notes))


def check_preservation(
    program: Program,
    results: AnalysisResults,
    initial_state: State | None = None,
    max_steps: int = 10_000,
) -> CheckReport:
    """Replay the extended execution; every ok step must project onto a standard step.

    Holds for any results (even wrong ones): extended rules share the
    standard rules' preconditions over label and state.  A violation outcome
    simply ends the extended execution early; that cannot break preservation.
    """
    config = Configuration.make(program.first, initial_state or {})
    notes: list[str] = []
    for checked in count():
        outcome = ext_step_with_results(program, config, results)
        if isinstance(outcome, ExtAtDone):
            notes.append("extended execution complete")
            break
        if not isinstance(outcome, ExtOk):
            notes.append(f"extended execution stopped: {outcome!r}")
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


def check_progress(
    program: Program,
    results: AnalysisResults,
    initial_state: State | None = None,
    max_steps: int = 10_000,
) -> CheckReport:
    """Along the standard execution, every step must have an extended counterpart.

    A pass certifies that pairing each visited configuration with its
    analysis result simulates the standard run under the extended rules,
    i.e. the results correctly predict this execution's futures.  A standard
    execution that gets stuck has no step to follow, so the check fails with
    a ``stuck`` violation at that label.
    """
    config = Configuration.make(program.first, initial_state or {})
    notes: list[str] = []
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
