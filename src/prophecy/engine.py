"""Live-variable analysis by repeated forward execution.

Instead of propagating liveness backward over an IR, the engine runs the
program forward and lets failed predictions drive the fixpoint:

* every analysis result starts empty;
* executing a command whose read set is not yet predicted live repairs the
  result at that label and aborts the run (a misprediction);
* every traversed edge contributes a prediction constraint — the successor's
  result may only exceed the current label's result by the assigned
  variable — and a constraint solver re-establishes all recorded constraints
  whenever a result grows;
* the driver reruns until a full execution raises no misprediction.

Because repairs only ever add elements that some precondition or constraint
forces, the fixpoint is the least one consistent with everything the
executions encountered.

The standard semantics never read predictions, so every rerun of one
analysis follows the same execution.  ``analyze_concrete`` therefore keeps a
``Recording`` of the labels its runs have evaluated: a rerun replays that
prefix with only the precondition and edge checks, and calls ``step`` only
past its end.  The analysis costs one evaluated trace plus the checks of
each rerun; run, misprediction and repair counts are those of evaluating
every run afresh.

One deliberate deviation from the literal pseudocode this follows: a
prediction constraint that is already violated when recorded (a loop back
edge first traversed after the last precondition repair) is repaired on the
spot and triggers one more rerun.  Without this, the computed results can
fail the progress check on that edge; ``strict_paper=True`` restores the
literal behavior so the gap stays demonstrable.

``analyze_all_paths`` explores both branches of every conditional at the
label level (no states) and matches ``live_variables_oracle`` — a classic
worklist solver kept entirely separate as the correctness reference —
on all labels reachable from the entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

from .core_lang import (
    AtDone,
    Configuration,
    Label,
    Program,
    State,
    StepObligations,
    Stuck,
    VarSet,
    command_obligations,
    step,
)


class AnalysisError(Exception):
    """Base class for engine failures that are not mispredictions."""


class ProgramStuckError(AnalysisError):
    """The analyzed program itself got stuck (e.g. an undefined variable)."""

    def __init__(self, label: Label, reason: str):
        super().__init__(f"program stuck at {label}: {reason}")
        self.label = label
        self.reason = reason


class StepBudgetExceeded(AnalysisError):
    def __init__(self, max_steps: int):
        super().__init__(f"execution did not reach done within {max_steps} steps")
        self.max_steps = max_steps


@dataclass(frozen=True)
class PredictionConstraint:
    """results[successor] ⊆ results[predecessor] ∪ extra, for one CFG edge."""

    successor: Label
    predecessor: Label
    extra: VarSet


class ConstraintSet:
    """Insertion-ordered set of prediction constraints, indexed for solving."""

    def __init__(self) -> None:
        self._all: dict[PredictionConstraint, None] = {}
        self._by_successor: dict[Label, list[PredictionConstraint]] = {}

    def add(self, constraint: PredictionConstraint) -> bool:
        if constraint in self._all:
            return False
        self._all[constraint] = None
        self._by_successor.setdefault(constraint.successor, []).append(constraint)
        return True

    def with_successor(self, label: Label) -> list[PredictionConstraint]:
        return self._by_successor.get(label, [])

    def __iter__(self):
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, constraint: PredictionConstraint) -> bool:
        return constraint in self._all


@dataclass(frozen=True)
class RunStats:
    """Rerun accounting for either mode: runs == mispredictions + constraint_repairs + 1."""

    runs: int
    mispredictions: int
    constraint_repairs: int

    def __post_init__(self) -> None:
        if self.runs != self.mispredictions + self.constraint_repairs + 1:
            raise ValueError(f"inconsistent run statistics: {self}")

    @property
    def passes(self) -> int:
        """All-paths name for ``runs``: there each run is one sweep."""
        return self.runs


@dataclass(frozen=True)
class Completed:
    reached_done: bool
    steps: int


@dataclass(frozen=True)
class Misprediction:
    label: Label
    kind: str  # precondition | constraint
    edge: tuple[Label, Label] | None = None


ExecutionOutcome = Union[Completed, Misprediction]


def solve(label: Label, results: dict[Label, VarSet], constraints: ConstraintSet) -> None:
    """Re-establish every recorded constraint after results[label] grew.

    Worklist version of the recursive repair: whenever the left side of a
    constraint exceeds its right side, the missing elements are forced into
    the predecessor's result, which in turn is enqueued.
    """
    pending = [label]
    while pending:
        current = pending.pop()
        for constraint in constraints.with_successor(current):
            missing = results[current] - constraint.extra - results[constraint.predecessor]
            if missing:
                results[constraint.predecessor] |= missing
                pending.append(constraint.predecessor)


def empty_results(program: Program) -> dict[Label, VarSet]:
    return {label: frozenset() for label in program.labels}


def _repair_precondition(
    label: Label,
    obligations: StepObligations,
    results: dict[Label, VarSet],
    constraints: ConstraintSet,
) -> Misprediction | None:
    """Force the command's reads into results[label]; a repair aborts the run."""
    missing = obligations.precondition - results[label]
    if not missing:
        return None
    results[label] |= missing
    solve(label, results, constraints)
    return Misprediction(label, "precondition")


def _record_edge(
    label: Label,
    successor: Label,
    obligations: StepObligations,
    results: dict[Label, VarSet],
    constraints: ConstraintSet,
    *,
    repair: bool,
) -> Misprediction | None:
    """Record the edge's prediction constraint; with ``repair``, fix it if already violated."""
    constraint = PredictionConstraint(successor, label, obligations.prediction_extra)
    constraints.add(constraint)
    if not repair:
        return None
    excess = results[successor] - constraint.extra - results[label]
    if not excess:
        return None
    results[label] |= excess
    solve(label, results, constraints)
    return Misprediction(label, "constraint", edge=(label, successor))


@dataclass
class Recording:
    """The standard execution of one program from one initial state, evaluated so far.

    ``labels[k]`` is the label after k transitions and ``config`` is the
    configuration at ``labels[-1]``.  Standard steps never read predictions,
    so every rerun follows the same labels and can replay this prefix.
    """

    labels: list[Label]
    config: Configuration

    @classmethod
    def start(cls, program: Program, initial_state: State | None) -> "Recording":
        config = Configuration.make(program.first, initial_state or {})
        return cls([config.label], config)


def execute_once(
    program: Program,
    initial_state: State | None,
    results: dict[Label, VarSet],
    constraints: ConstraintSet,
    max_steps: int = 10_000,
    *,
    repair_constraints: bool = True,
    recording: Recording | None = None,
) -> ExecutionOutcome:
    """One forward run checking preconditions and collecting constraints.

    Returns Misprediction as soon as a repair happened (the caller reruns);
    Completed(reached_done=False) when the step budget ran out violation-free.
    Standard stuckness is a program error, not a misprediction.

    ``recording``, if given, holds what earlier runs from ``initial_state``
    evaluated: its steps are replayed with only the precondition and edge
    checks, ``step`` runs only past its end, and new steps are appended.
    Replayed steps count toward ``max_steps``.  Without it the run starts a
    fresh recording and evaluates every step.
    """
    if recording is None:
        recording = Recording.start(program, initial_state)
    labels = recording.labels
    for steps in range(max_steps + 1):
        label = labels[steps]
        obligations = command_obligations(program, label)
        repaired = _repair_precondition(label, obligations, results, constraints)
        if repaired:
            return repaired
        if steps + 1 == len(labels):
            outcome = step(program, recording.config)
            if isinstance(outcome, AtDone):
                return Completed(reached_done=True, steps=steps)
            if isinstance(outcome, Stuck):
                raise ProgramStuckError(label, outcome.reason)
            labels.append(outcome.label)
            recording.config = outcome
        repaired = _record_edge(
            label, labels[steps + 1], obligations, results, constraints, repair=repair_constraints
        )
        if repaired:
            return repaired
    return Completed(reached_done=False, steps=max_steps)


def _rerun(
    program: Program,
    attempt: Callable[[dict[Label, VarSet], ConstraintSet], Misprediction | None],
) -> tuple[dict[Label, VarSet], RunStats]:
    """Repeat ``attempt`` on persistent results and constraints until it returns None.

    Every aborted run grew some result, and results are bounded by the
    program's variables at each label, so more runs than the ceiling means
    the repair accounting is broken.
    """
    results = empty_results(program)
    constraints = ConstraintSet()
    repairs = {"precondition": 0, "constraint": 0}
    run_ceiling = len(program.labels) * max(1, len(program.variables())) + 2
    for runs in range(1, run_ceiling + 1):
        outcome = attempt(results, constraints)
        if outcome is None:
            return results, RunStats(runs, repairs["precondition"], repairs["constraint"])
        repairs[outcome.kind] += 1
    raise AnalysisError("rerun ceiling exceeded; repair accounting is broken")


def analyze_concrete(
    program: Program,
    initial_state: State | None = None,
    max_steps: int = 10_000,
    *,
    strict_paper: bool = False,
) -> tuple[dict[Label, VarSet], RunStats]:
    """Rerun the program until an execution completes without mispredictions.

    Results and constraints persist across reruns.  The returned results
    satisfy every precondition and prediction constraint the executions
    encountered and are the least such assignment (every addition was
    forced).  With ``strict_paper=True`` the constraint-repair deviation is
    disabled, so results may leave a late-recorded edge constraint
    unsatisfied.

    The runs share one ``Recording``: the standard execution is evaluated
    once, and each rerun replays what earlier runs evaluated.
    """
    recording = Recording.start(program, initial_state)

    def attempt(results: dict[Label, VarSet], constraints: ConstraintSet) -> Misprediction | None:
        outcome = execute_once(
            program,
            initial_state,
            results,
            constraints,
            max_steps,
            repair_constraints=not strict_paper,
            recording=recording,
        )
        if isinstance(outcome, Misprediction):
            return outcome
        if not outcome.reached_done:
            raise StepBudgetExceeded(max_steps)
        return None

    return _rerun(program, attempt)


def _all_paths_pass(
    program: Program,
    results: dict[Label, VarSet],
    constraints: ConstraintSet,
) -> Misprediction | None:
    """One label-level sweep over every reachable label and edge.

    Conditionals contribute both successors; each label is visited once
    (depth first, fall-through before branch target).  The first violation
    is repaired and ends the sweep, mirroring how a concrete run aborts.
    """
    visited: set[Label] = set()
    stack = [program.first]
    while stack:
        label = stack.pop()
        if label in visited:
            continue
        visited.add(label)
        obligations = command_obligations(program, label)
        repaired = _repair_precondition(label, obligations, results, constraints)
        if repaired:
            return repaired
        successors = program.ordered_successors(label)
        for successor in successors:
            repaired = _record_edge(
                label, successor, obligations, results, constraints, repair=True
            )
            if repaired:
                return repaired
        for successor in reversed(successors):
            if successor not in visited:
                stack.append(successor)
    return None


def analyze_all_paths(program: Program) -> dict[Label, VarSet]:
    """Fixpoint over every path: all branch alternatives contribute obligations.

    Stand-in for exhaustively exploring dynamic control flow: instead of
    concrete executions, the sweep walks the control-flow graph and treats
    each conditional as taking both branches.  Unreachable labels keep
    empty results.
    """
    results, _ = analyze_all_paths_with_stats(program)
    return results


def analyze_all_paths_with_stats(program: Program) -> tuple[dict[Label, VarSet], RunStats]:
    """``analyze_all_paths`` plus its rerun accounting; each run is one sweep."""
    return _rerun(program, partial(_all_paths_pass, program))


def live_variables_oracle(program: Program) -> dict[Label, VarSet]:
    """Independent reference: backward may-live dataflow via a worklist.

    live_in(l) = use(l) ∪ (⋃ over successors s of live_in(s), minus def(l)),
    iterated to the least fixpoint.  Shares only the per-command use/def
    sets with the engine; the propagation is a conventional worklist over
    the control-flow graph, with no reexecution involved.
    """
    labels = program.labels
    obligations: dict[Label, StepObligations] = {
        label: command_obligations(program, label) for label in labels
    }
    live: dict[Label, VarSet] = {label: frozenset() for label in labels}
    pending = list(reversed(labels))
    in_queue = set(pending)
    while pending:
        label = pending.pop()
        in_queue.discard(label)
        out: frozenset[str] = frozenset()
        for successor in program.successors(label):
            out |= live[successor]
        updated = obligations[label].precondition | (out - obligations[label].prediction_extra)
        if updated != live[label]:
            live[label] = updated
            for predecessor in program.predecessors(label):
                if predecessor not in in_queue:
                    pending.append(predecessor)
                    in_queue.add(predecessor)
    return live


def reachable_labels(program: Program) -> frozenset[Label]:
    seen: set[Label] = set()
    stack = [program.first]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(program.successors(label))
    return frozenset(seen)
