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
analysis follows the same execution.  ``analyze_concrete`` collects its
steps (a label and the label it reaches) from ``core_lang.label_path``
once, before the first run, and each rerun resumes its checks at the step
where the previous run aborted: results only grow, and ``solve``
re-establishes every recorded constraint whenever one grows, so no earlier
check can fire again.  Nor can the checks of a step that occurred before,
so ``label_path`` yields each distinct step once, plus the last.  The
analysis costs one execution, plus one check per distinct step, plus the
repairs; run, misprediction and repair counts are those of running every
run from the start.  ``analyze_all_paths_with_stats`` resumes its sweeps
the same way along the program's ``sweep_order``, so it costs one check
per reachable label, plus the repairs.

One deliberate deviation from the literal pseudocode this follows: a
prediction constraint that is already violated when recorded (a loop back
edge first traversed after the last precondition repair) is repaired on the
spot and triggers one more rerun.  Without this, the computed results can
fail the progress check on that edge; ``strict_paper=True`` restores the
literal behavior so the gap stays demonstrable.

``analyze_all_paths_with_stats`` explores both branches of every
conditional at the label level (no states) and matches
``live_variables_oracle`` — a classic worklist solver kept entirely
separate as the correctness reference — on all labels reachable from the
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core_lang import (
    Label,
    Program,
    State,
    StepObligations,
    Stuck,
    VarSet,
    command_obligations,
    label_path,
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
    """Insertion-ordered prediction constraints, one per edge, indexed for solving.

    A constraint's ``extra`` is the predecessor's assigned variable, so the
    edge ``(predecessor, successor)`` determines it and serves as its key.
    """

    def __init__(self) -> None:
        self._all: dict[tuple[Label, Label], PredictionConstraint] = {}
        self._by_successor: dict[Label, list[PredictionConstraint]] = {}

    def add(self, constraint: PredictionConstraint) -> bool:
        edge = (constraint.predecessor, constraint.successor)
        if edge in self._all:
            return False
        self._all[edge] = constraint
        self._by_successor.setdefault(constraint.successor, []).append(constraint)
        return True

    def with_successor(self, label: Label) -> list[PredictionConstraint]:
        return self._by_successor.get(label, [])

    def __iter__(self):
        return iter(self._all.values())

    def __contains__(self, edge: tuple[Label, Label]) -> bool:
        return edge in self._all


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
class Misprediction:
    label: Label
    kind: str  # precondition | constraint
    edge: tuple[Label, Label] | None = None


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


def _check_from(
    program: Program,
    labels: Sequence[Label],
    successors: Callable[[int], tuple[Label, ...]],
    cursor: int,
    results: dict[Label, VarSet],
    constraints: ConstraintSet,
    repair_constraints: bool,
) -> tuple[int, Misprediction | None]:
    """Check steps from ``cursor`` until a repair aborts the run or the walk ends.

    Step k forces the reads of ``labels[k]`` into its result, then records
    the prediction constraint of each edge to ``successors(k)``.
    Unless ``repair_constraints`` is off, a constraint already violated is
    repaired on the spot.  Any repair aborts the run.  Returns the step
    where the walk stopped and the misprediction, if any.

    An edge already recorded is skipped: its constraint holds from then on.
    By default it was repaired when first recorded, and ``solve`` keeps it
    satisfied whenever a result grows; under ``strict_paper`` it is never
    checked.  So a loop records each of its edges once, not once per
    iteration.
    """
    while cursor < len(labels):
        label = labels[cursor]
        obligations = command_obligations(program, label)
        missing = obligations.precondition - results[label]
        if missing:
            results[label] |= missing
            solve(label, results, constraints)
            return cursor, Misprediction(label, "precondition")
        extra = obligations.prediction_extra
        for successor in successors(cursor):
            if (label, successor) in constraints:
                continue
            constraints.add(PredictionConstraint(successor, label, extra))
            if repair_constraints and (excess := results[successor] - extra - results[label]):
                results[label] |= excess
                solve(label, results, constraints)
                return cursor, Misprediction(label, "constraint", edge=(label, successor))
        cursor += 1
    return cursor, None


def _rerun(
    program: Program,
    labels: Sequence[Label],
    successors: Callable[[int], tuple[Label, ...]],
    *,
    repair_constraints: bool = True,
) -> tuple[dict[Label, VarSet], RunStats]:
    """Run the check walk on persistent results and constraints until no repair aborts it.

    Each rerun resumes at the step where the previous run aborted.
    Checks before it cannot fire again: results only grow, so a precondition
    that held still holds, and ``solve`` re-establishes every recorded
    constraint whenever a result grows.  So each rerun aborts where a run
    from step 0 would.

    Every aborted run grew some result, and results are bounded by the
    program's variables at each label, so more runs than the ceiling means
    the repair accounting is broken.
    """
    results = empty_results(program)
    constraints = ConstraintSet()
    repairs = {"precondition": 0, "constraint": 0}
    run_ceiling = len(program.labels) * max(1, len(program.variables())) + 2
    cursor = 0
    for runs in range(1, run_ceiling + 1):
        cursor, outcome = _check_from(
            program, labels, successors, cursor, results, constraints, repair_constraints
        )
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

    The distinct steps of the standard execution come from ``label_path``
    once, before the first run, and each rerun resumes at the step where the
    previous run aborted.  An execution that gets stuck or runs past
    ``max_steps`` is not analyzed.
    """
    steps = list(label_path(program, initial_state, max_steps))
    _, label, reached = steps[-1]
    if isinstance(reached, Stuck):
        raise ProgramStuckError(label, reached.reason)
    if isinstance(reached, str):  # the label past the budget
        raise StepBudgetExceeded(max_steps)
    return _rerun(  # a step's edge goes to the label it reached; the last one reached done
        program, [label for _, label, _ in steps],
        lambda k: steps[k][2:] if k + 1 < len(steps) else (), repair_constraints=not strict_paper,
    )


def analyze_all_paths_with_stats(program: Program) -> tuple[dict[Label, VarSet], RunStats]:
    """Fixpoint over every path: all branch alternatives contribute obligations.

    Stand-in for exhaustively exploring dynamic control flow: instead of
    concrete executions, the sweep walks the control-flow graph and treats
    each conditional as taking both branches.  Unreachable labels keep
    empty results.  Returns the results with the rerun accounting, where
    each run is one sweep.

    A sweep checks the reachable labels in ``sweep_order``, each with the
    edges to all its successors.  The first violation is repaired and ends
    the sweep, mirroring how a concrete run aborts; the next sweep resumes
    at that label.
    """
    order = program.sweep_order()
    return _rerun(program, order, lambda k: program.ordered_successors(order[k]))


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
    return frozenset(program.sweep_order())
