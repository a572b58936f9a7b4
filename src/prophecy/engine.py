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

Both modes hand ``_rerun`` a walk: a list of edges ``(label, successor)``,
with no successor for a label that ends the walk.  The standard semantics
never read predictions, so every rerun of one concrete analysis follows the
same execution, and ``analyze_concrete`` takes its edges from the distinct
steps ``core_lang.label_path`` yields.  ``analyze_all_paths_with_stats``
takes one edge per reachable label and successor, in ``sweep_order``.
Each rerun resumes at the edge where the previous run aborted: results
only grow, and ``solve`` re-establishes every recorded constraint whenever
one grows, so no earlier check can fire again.  An analysis costs one
check per edge, plus the repairs; run, misprediction and repair counts are
those of running every run from the start.

Results, constraint extras and the oracle's live sets are bit masks over
the program's variables (``core_lang.obligation_masks``, which ``Program``
builds once per distinct obligation record), so each check, repair and
worklist step is a few int operations.  Each analysis turns every distinct
mask back into a frozenset on return, with ``mask_names``, which decodes a
mask once per program.  The sweep and the oracle read successors and
predecessors from the program's table, with no method call per label.

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
entry.  The oracle visits labels last to first, so loop-free code (every
edge leads to a later label) takes one visit per label, and a label is
revisited only when a successor's set grows after its visit, about once
more per label inside a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core_lang import (
    Label,
    Program,
    State,
    Stuck,
    VarSet,
    label_path,
    mask_names,
    obligation_masks,
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


# successor -> [(predecessor, extra)], one per recorded edge, each meaning
# results[successor] ⊆ results[predecessor] ∪ extra, over the masks of ``obligation_masks``
Constraints = dict[Label, list[tuple[Label, int]]]


def solve(label: Label, results: dict[Label, int], constraints: Constraints) -> None:
    """Re-establish every recorded constraint after results[label] grew.

    Worklist version of the recursive repair: whenever the left side of a
    constraint exceeds its right side, the missing elements are forced into
    the predecessor's result, which in turn is enqueued.  Results and
    extras are bit masks as ``obligation_masks`` numbers them, so each
    check is three int operations.
    """
    pending = [label]
    while pending:
        current = pending.pop()
        # only a constraint of ``current`` on itself could grow it here, and that one forces nothing
        grown = results[current]
        for predecessor, extra in constraints.get(current, ()):
            if missing := grown & ~(extra | results[predecessor]):
                results[predecessor] |= missing
                pending.append(predecessor)


def _as_sets(program: Program, masks: dict[Label, int]) -> dict[Label, VarSet]:
    """Each label's mask as its set of names, decoding each distinct mask once."""
    sets = {mask: mask_names(program, mask) for mask in set(masks.values())}
    return dict(zip(masks, map(sets.__getitem__, masks.values())))


def _rerun(
    program: Program,
    edges: Sequence[tuple[Label, Label | None]],
    *,
    repair_constraints: bool = True,
) -> tuple[dict[Label, VarSet], RunStats]:
    """Check the walk's edges on persistent results and constraints until no repair aborts a run.

    At ``(label, successor)`` a read of ``label`` not yet in its result is
    added there and aborts the run, which resumes at the same edge.
    Otherwise the edge's prediction constraint is recorded, when it has a
    successor, and unless ``repair_constraints`` is off one already
    violated is repaired on the spot; that aborts the run, which resumes
    at the next edge.  Each repair calls ``solve``.

    Checks before the resumption point cannot fire again: results only
    grow, so a precondition that held still holds, and ``solve``
    re-establishes every recorded constraint whenever a result grows.  So
    each rerun aborts where a run from the first edge would.  Each edge
    occurs once in ``edges``, so its constraint is recorded once.

    Every aborted run grew some result, and results are bounded by the
    program's variables at each label, so more runs than the ceiling means
    the repair accounting is broken.
    """
    masks = obligation_masks(program)
    results = dict.fromkeys(program.labels, 0)
    constraints: Constraints = {}
    repairs = {"precondition": 0, "constraint": 0}
    run_ceiling = len(program.labels) * max(1, len(program.variables())) + 2
    runs, position = 1, 0
    while position < len(edges):
        label, successor = edges[position]
        read, defined = masks[label]
        if missing := read & ~results[label]:
            kind = "precondition"
        else:
            position += 1
            if successor is None:
                continue
            constraints.setdefault(successor, []).append((label, defined))
            missing = results[successor] & ~(defined | results[label])
            if not (missing and repair_constraints):
                continue
            kind = "constraint"
        results[label] |= missing
        solve(label, results, constraints)
        repairs[kind] += 1
        if runs == run_ceiling:
            raise AnalysisError("rerun ceiling exceeded; repair accounting is broken")
        runs += 1
    return _as_sets(program, results), RunStats(runs, repairs["precondition"], repairs["constraint"])


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
    once, before the first run: each step's edge goes to the label it
    reached, and the last step, which reached done, has none.  An execution
    that gets stuck or runs past ``max_steps`` is not analyzed.
    """
    steps = list(label_path(program, initial_state, max_steps))
    _, label, reached = steps[-1]
    if isinstance(reached, Stuck):
        raise ProgramStuckError(label, reached.reason)
    if isinstance(reached, str):  # the label past the budget
        raise StepBudgetExceeded(max_steps)
    edges = [(label, reached) for _, label, reached in steps[:-1]]
    return _rerun(program, edges + [(label, None)], repair_constraints=not strict_paper)


def analyze_all_paths_with_stats(program: Program) -> tuple[dict[Label, VarSet], RunStats]:
    """Fixpoint over every path: all branch alternatives contribute obligations.

    Stand-in for exhaustively exploring dynamic control flow: instead of
    concrete executions, the sweep walks the control-flow graph and treats
    each conditional as taking both branches.  Unreachable labels keep
    empty results.  Returns the results with the rerun accounting, where
    each run is one sweep.

    A sweep checks the reachable labels in ``sweep_order``, each with the
    edges to all its successors (``done`` has none).  The first violation
    is repaired and ends the sweep, mirroring how a concrete run aborts;
    the next sweep resumes there.
    """
    order, table = program.sweep_order(), program._table
    edges = [(label, s) for label in order for s in table[label][3] or (None,)]
    return _rerun(program, edges)


def live_variables_oracle(program: Program) -> dict[Label, VarSet]:
    """Independent reference: backward may-live dataflow via a worklist.

    live_in(l) = use(l) ∪ (⋃ over successors s of live_in(s), minus def(l)),
    iterated to the least fixpoint.  Shares only the per-command use/def
    sets with the engine, as the bit masks ``Program`` builds; the
    propagation is a conventional worklist over the control-flow graph, on
    masks, with no reexecution involved.

    The first visits go backward, from the last label to the first, and a
    label whose set changes enqueues its predecessors, popped last in first
    out.  So loop-free code (every edge leads to a later label) takes one
    visit per label, and a label is revisited only when a successor's set
    grew after its visit.  The least fixpoint does not depend on the order.
    """
    labels, masks = program.labels, obligation_masks(program)
    table, predecessors = program._table, program._predecessors
    live = dict.fromkeys(labels, 0)
    pending = list(labels)  # popped from the end: the last label first
    in_queue = set(pending)
    while pending:
        label = pending.pop()
        in_queue.discard(label)
        out = 0
        for successor in table[label][3]:
            out |= live[successor]
        read, defined = masks[label]
        updated = read | (out & ~defined)
        if updated != live[label]:
            live[label] = updated
            for predecessor in predecessors[label]:
                if predecessor not in in_queue:
                    pending.append(predecessor)
                    in_queue.add(predecessor)
    return _as_sets(program, live)


def reachable_labels(program: Program) -> frozenset[Label]:
    return frozenset(program.sweep_order())
