"""Prophecy-extended semantics for live-variable prediction, plus checkers.

The extended semantics augments each configuration with a predicted set of
live variables.  Two kinds of obligations attach to every transition out of
a command (``StepObligations``, which ``core_lang`` computes once per label
when the program is built):

* a precondition: every variable the command reads must already be in the
  current prediction;
* a prediction constraint: the next prediction may only add the variable the
  command assigns (nothing, for commands that assign nothing).

For checking we substitute computed analysis results for the predictions:
the prediction before label ``l`` is ``results[l]``.  An extended step is
then a standard step plus two inclusion guards over ``results``: it
exists iff the standard step does and both guards hold, and it reaches the
configuration the standard step reaches.  Preservation (extended steps
introduce no new behavior) therefore holds by construction, for any
results: a failed guard only ends the extended execution early.  Progress
(the results let the extended semantics follow every standard step) is what
the results must earn.  When both hold, standard and extended
configurations simulate each other along the checked execution.

Both checkers check both guards on the steps of ``core_lang.label_path``,
which runs the compiled transitions (each checked against the tree-walking
``reference_step`` by differential tests) in its own loop under the
``max_steps`` rule the engine shares with ``run_trace``, which only counts
an execution's positions; after ``analyze_concrete`` or the other checker
on the same execution, the walk is a replay that evaluates no step.  With
the results fixed, a guard's outcome depends only on the step (a label and
the label it reaches), so the first failing position is that of the first
failing distinct step.  A check whose execution runs past the budget does
not pass: it reports a ``truncated`` violation at the label where it
stopped.  Progress also fails with a ``stuck`` violation when the standard
execution gets stuck (an undefined variable): there is no step for the
results to follow.  Preservation passes there, noting where the extended
execution stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .core_lang import (
    AtDone,
    Label,
    Program,
    State,
    Stuck,
    VarSet,
    command_obligations,
    label_path,
)

AnalysisResults = Mapping[Label, VarSet]


@dataclass(frozen=True)
class Violation:
    kind: str  # precondition | prediction | truncated | stuck
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
        return f"{self.kind} at {self.label}: {self.detail}"

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


def _truncated(check: str, label: Label, checked: int) -> CheckReport:
    """Budget ran out before ``done``: the rest of the execution went unchecked."""
    violation = Violation("truncated", label, detail=f"no done within {checked} steps")
    return CheckReport(check, False, checked, violation)


def _walk(
    program: Program, results: AnalysisResults, initial_state: State | None, max_steps: int
) -> tuple[int, Label, Label | Stuck | AtDone, Violation | None]:
    """Check the extended guards on the steps of ``label_path`` until a guard fails or it stops.

    The precondition is checked first, then the prediction on the edge the
    standard step takes.  Returns the position and label where the walk
    stopped, what that step reached, and the failed guard, if any.
    """
    failed = None
    for checked, label, reached in label_path(program, initial_state, max_steps):
        obligations = command_obligations(program, label)
        current = results[label]
        # a containment test builds no set: a guard that holds costs no difference
        if not (precondition := obligations.precondition) <= current:
            failed = Violation("precondition", label, precondition - current)
            break
        if isinstance(reached, str) and not (after := results[reached]) <= current:
            if excess := after - current - obligations.prediction_extra:
                failed = Violation("prediction", label, excess, next_label=reached)
                break
    return checked, label, reached, failed


def check_preservation(
    program: Program,
    results: AnalysisResults,
    initial_state: State | None = None,
    max_steps: int = 10_000,
) -> CheckReport:
    """Replay the extended execution; it must end at ``done`` or stop early within the budget.

    Holds for any results (even wrong ones): an extended step is the
    standard step behind two guards, so a failed guard or a stuck step
    only stops the extended execution, which a note records.
    """
    checked, label, reached, failed = _walk(program, results, initial_state, max_steps)
    if isinstance(reached, AtDone):
        return CheckReport("preservation", True, checked, None, ("extended execution complete",))
    if isinstance(reached, Stuck) and failed is None:
        failed = Violation("stuck", label, detail=reached.reason)
    if failed is None:
        return _truncated("preservation", label, checked)
    note = f"extended execution stopped: {failed.describe()}"
    return CheckReport("preservation", True, checked, None, (note,))


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
    checked, label, reached, failed = _walk(program, results, initial_state, max_steps)
    if isinstance(reached, AtDone):
        return CheckReport("progress", True, checked, None, ("standard execution complete",))
    if isinstance(reached, Stuck):
        failed = Violation("stuck", label, detail=reached.reason)
    elif checked >= max_steps:
        return _truncated("progress", label, checked)
    return CheckReport("progress", False, checked, failed)
