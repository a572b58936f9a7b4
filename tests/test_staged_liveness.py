"""Live variables through staging's prophecy cells, checked against the engine.

The repo runs the paper's mechanism twice: ``engine._rerun`` for the core
language (a constraint solver and resumption) and ``staging.run_staged``
for the DSLs (cells, ``require``, merge and a rerun from scratch).  Here a
staged generator computes live variables with nothing but ``label_path``,
``command_obligations``, ``LatticeSpec`` and ``run_staged``, and its
settled cells must equal the engine's results on every label.

The lattice is the powerset of the program's variables: ``satisfies`` is
inclusion, ``merge`` union, ``rank`` size, and ``max_rank`` the number of
variables.  The generator makes one cell per label, in sorted order, and at
each edge ``(l, s)`` of the walk requires ``reads(l)`` of ``l``'s cell, then
``s``'s prediction minus ``assigned(l)``.  Every merge adds only what a
requirement forces, so a clean run leaves the least assignment that meets
every requirement of the walk's edges: the engine's fixpoint.

Staging has no ``solve``: a merge aborts the run, and growth reaches an
earlier label only when a later run passes that label's edge again.  So it
takes more runs than the engine.  On the concrete sample below it took
3,032 runs in all against the engine's 1,471, equal on 61 programs and more
on the other 239; nothing here argues that it can never take fewer, so the
counts are reported (as test properties), not asserted.
"""

from __future__ import annotations

import random

from randprog import corpus, terminating_sample

from prophecy.core_lang import command_obligations, label_path
from prophecy.engine import analyze_all_paths_with_stats, analyze_concrete
from prophecy.staging import LatticeSpec, run_staged


class Powerset(LatticeSpec):
    """Sets of a program's variables, ordered by inclusion."""

    name = "powerset"

    def __init__(self, variables: frozenset[str]):
        self.max_rank = len(variables)

    def satisfies(self, current, required):
        return required <= current

    def merge(self, current, required):
        return current | required

    def rank(self, value):
        return len(value)


def staged_liveness(program, edges):
    """Each label's settled cell after a clean run over ``edges``, and the staging stats.

    ``edges`` is the walk: ``(label, successor)`` pairs, the successor None
    where the walk ends at that label."""
    lattice, settled = Powerset(program.variables()), {}

    def generator(ctx):
        cells = {label: ctx.prophecy_cell(lattice, frozenset(), name=label)
                 for label in sorted(program.labels)}
        for label, successor in edges:
            obligations = command_obligations(program, label)
            cells[label].require(obligations.precondition)
            if successor is not None:
                cells[label].require(cells[successor].get() - obligations.prediction_extra)
        settled.update((label, cell.get()) for label, cell in cells.items())

    _, stats = run_staged(generator, name="liveness")
    assert stats.runs == stats.merges + 1 <= 1 + len(program.labels) * lattice.max_rank
    return settled, stats


def concrete_edges(program, state):
    """The distinct steps of the execution, each to the label it reached; the last ends the walk."""
    return [(label, reached if isinstance(reached, str) else None)
            for _, label, reached in label_path(program, state)]


def sweep_edges(program):
    """One edge per reachable label and successor, in sweep order, as the all-paths sweep walks."""
    return [(label, successor) for label in program.sweep_order()
            for successor in program.ordered_successors(label) or (None,)]


def test_staged_cells_equal_the_concrete_engine(record_property):
    staged_runs = engine_runs = 0
    for program, state in terminating_sample(random.Random(11), 300):
        settled, stats = staged_liveness(program, concrete_edges(program, state))
        results, engine_stats = analyze_concrete(program, state)
        assert settled == results
        staged_runs += stats.runs
        engine_runs += engine_stats.runs
    record_property("staged_runs", staged_runs)
    record_property("engine_runs", engine_runs)


def test_staged_cells_equal_the_all_paths_engine(record_property):
    staged_runs = engine_runs = 0
    for program in corpus(random.Random(7), 300):
        settled, stats = staged_liveness(program, sweep_edges(program))
        results, engine_stats = analyze_all_paths_with_stats(program)
        assert settled == results
        staged_runs += stats.runs
        engine_runs += engine_stats.runs
    record_property("staged_runs", staged_runs)
    record_property("engine_runs", engine_runs)
