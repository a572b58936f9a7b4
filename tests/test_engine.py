import random

import pytest

from prophecy import engine
from prophecy.core_lang import Program, parse_program, run_trace
from prophecy.engine import (
    RunStats,
    StepBudgetExceeded,
    analyze_all_paths_with_stats,
    analyze_concrete,
    live_variables_oracle,
    reachable_labels,
    solve,
)
from prophecy.extended import check_preservation, check_progress
from randprog import corpus, terminating_sample
from test_differential import compiled_walk, solve as reference_solve

STRAIGHT = "l0: x := 1\nl1: y := x\nl2: halt\nl3: done"

LOOP = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""

BRANCH = """
l0: if x <= 0 then l3
l1: z := y
l2: goto l4
l3: z := w
l4: halt
l5: done
"""


class TestSolve:
    """``engine.solve`` over masks, bit k standing for ``NAMES[k]``, against the reference over sets."""

    NAMES = ("w", "x", "y")

    def _solved(self, label, results, constraints):
        """Both solves from the same sets; the mask results decoded, once they match the reference's."""
        bit = {name: 1 << at for at, name in enumerate(self.NAMES)}

        def encode(names):
            return sum(bit[name] for name in names)

        masks = {where: encode(names) for where, names in results.items()}
        solve(label, masks, {successor: [(predecessor, encode(extra)) for predecessor, extra in recorded]
                             for successor, recorded in constraints.items()})
        decoded = {where: frozenset(name for name in self.NAMES if mask & bit[name])
                   for where, mask in masks.items()}
        reference_solve(label, results, constraints)
        assert decoded == results
        return decoded

    def test_direct_propagation(self):
        constraints = {"l1": [("l0", frozenset())]}
        results = {"l0": frozenset(), "l1": frozenset({"x"})}
        results = self._solved("l1", results, constraints)
        assert results["l0"] == {"x"}

    def test_extra_absorbs(self):
        constraints = {"l1": [("l0", frozenset({"x"}))]}
        results = {"l0": frozenset(), "l1": frozenset({"x"})}
        results = self._solved("l1", results, constraints)
        assert results["l0"] == frozenset()

    def test_chain_propagation(self):
        constraints = {"l2": [("l1", frozenset())], "l1": [("l0", frozenset())]}
        results = {"l0": frozenset(), "l1": frozenset(), "l2": frozenset({"x"})}
        results = self._solved("l2", results, constraints)
        assert results["l1"] == {"x"}
        assert results["l0"] == {"x"}


class TestAnalyzeConcrete:
    def test_straight_line(self):
        program = parse_program(STRAIGHT)
        results, stats = analyze_concrete(program)
        assert results == {
            "l0": frozenset(),
            "l1": frozenset({"x"}),
            "l2": frozenset(),
            "l3": frozenset(),
        }
        assert stats == RunStats(runs=2, mispredictions=1, constraint_repairs=0)

    def test_loop_program_four_runs(self):
        program = parse_program(LOOP)
        results, stats = analyze_concrete(program)
        assert results == {
            "l0": frozenset(),
            "l1": frozenset({"x"}),
            "l2": frozenset({"x"}),
            "l3": frozenset({"x"}),
            "l4": frozenset(),
            "l5": frozenset(),
        }
        assert stats == RunStats(runs=4, mispredictions=2, constraint_repairs=1)

    def test_read_free_program_single_run(self):
        program = parse_program("l0: x := 7\nl1: halt\nl2: done")
        results, stats = analyze_concrete(program)
        assert all(not v for v in results.values())
        assert stats.runs == 1

    def test_strict_paper_misses_back_edge(self):
        program = parse_program(LOOP)
        results, stats = analyze_concrete(program, strict_paper=True)
        assert results["l3"] == frozenset()  # the gap: l3 -> l1 edge never repaired
        assert stats.constraint_repairs == 0
        report = check_progress(program, results)
        assert not report.passed
        assert report.violation.kind == "prediction"
        assert (report.violation.label, report.violation.next_label) == ("l3", "l1")

    def test_default_mode_passes_both_checks(self):
        program = parse_program(LOOP)
        results, _ = analyze_concrete(program)
        assert check_preservation(program, results).passed
        assert check_progress(program, results).passed

    def test_nontermination_reported(self):
        program = parse_program("l0: goto l0\nl1: halt\nl2: done")
        with pytest.raises(StepBudgetExceeded):
            analyze_concrete(program, max_steps=50)

    def test_deterministic_across_invocations(self):
        program = parse_program(LOOP)
        first = analyze_concrete(program)
        second = analyze_concrete(program)
        assert first == second


class TestAllPaths:
    def test_branch_program(self):
        program = parse_program(BRANCH)
        results = analyze_all_paths_with_stats(program)[0]
        assert results == {
            "l0": frozenset({"x", "y", "w"}),
            "l1": frozenset({"y"}),
            "l2": frozenset(),
            "l3": frozenset({"w"}),
            "l4": frozenset(),
            "l5": frozenset(),
        }

    def test_straight_line_matches_concrete(self):
        program = parse_program(STRAIGHT)
        concrete, _ = analyze_concrete(program)
        assert analyze_all_paths_with_stats(program)[0] == concrete

    def test_unreachable_label_stays_empty(self):
        program = parse_program(
            "l0: goto l2\nl1: q := r\nl2: halt\nl3: done"
        )
        results = analyze_all_paths_with_stats(program)[0]
        assert results["l1"] == frozenset()
        assert "l1" not in reachable_labels(program)

    def test_matches_oracle_on_loop_and_branch(self):
        for text in (LOOP, BRANCH, STRAIGHT):
            program = parse_program(text)
            oracle = live_variables_oracle(program)
            computed = analyze_all_paths_with_stats(program)[0]
            for label in reachable_labels(program):
                assert computed[label] == oracle[label], label

    def test_stats_accounting(self):
        program = parse_program(LOOP)
        _, stats = analyze_all_paths_with_stats(program)
        assert stats.passes == stats.mispredictions + stats.constraint_repairs + 1


class TestCheckCost:
    """Each run resumes where the previous one aborted, so checks grow linearly.

    Every distinct step is checked once, and each rerun re-checks only the
    step that aborted the run before it, so a loop costs the same checks
    however often it iterates.  Each edge's constraint is built once.
    """

    @staticmethod
    def _chain():
        # each link reads what the previous one wrote: one sweep per link
        links = [f"l{k}: x{(k + 1) % 8} := x{k % 8} + 1" for k in range(198)]
        return parse_program("\n".join(links + ["l198: halt", "l199: done"]))

    def test_all_paths_chain(self, lookups):
        program = self._chain()
        _, stats = analyze_all_paths_with_stats(program)
        assert stats.runs >= 198
        assert lookups.engine
        assert len(lookups.engine) <= len(program.labels) + 2 * stats.runs

    @staticmethod
    def _counting_loop(start=50):
        names = [f"a{j}" for j in range(8)]
        lines = [f"i := {start}"] + [f"{a} := 0" for a in names] + ["if i <= 0 then l{end}"]
        lines += [f"{a} := {a} + {b}" for a, b in zip(names, names[1:] + ["i"])]
        lines += ["i := i - 1", "goto l9", "t := " + " + ".join(names), "halt", "done"]
        text = "\n".join(f"l{k}: {line}" for k, line in enumerate(lines))
        return parse_program(text.format(end=len(lines) - 3))

    def test_concrete_counting_loop(self, lookups):
        program = self._counting_loop()
        _, stats = analyze_concrete(program)
        assert stats.runs >= 10
        assert lookups.engine
        assert len(lookups.engine) <= len(run_trace(program)) + 2 * stats.runs

    def test_concrete_lookups_do_not_grow_with_iterations(self, lookups):
        counts = []
        for start in (50, 500):
            lookups.engine.clear()
            analyze_concrete(self._counting_loop(start))
            counts.append(len(lookups.engine))
        assert counts[0] == counts[1] > 0

    def test_concrete_counting_loop_builds_each_edge_once(self, monkeypatch):
        handed = []

        def keeping(label, results, constraints):
            handed.append(constraints)
            solve(label, results, constraints)

        monkeypatch.setattr(engine, "solve", keeping)

        def built(analyze, program, *args):
            """The edges of the constraints an analysis recorded, if it repaired anything."""
            handed.clear()
            analyze(program, *args)
            # every repair hands solve the same mapping, which the analysis keeps growing
            return [(predecessor, successor) for successor, recorded in handed[-1].items()
                    for predecessor, _ in recorded] if handed else []

        program = self._counting_loop()
        edges = built(analyze_concrete, program)
        labels = [config.label for config in compiled_walk(program)]
        assert len(edges) == len(set(edges)) <= len(set(zip(labels, labels[1:])))
        assert edges

        for program, state in terminating_sample(random.Random(5), 40):
            edges = built(analyze_concrete, program, state)
            labels = [config.label for config in compiled_walk(program, state)]
            assert len(edges) == len(set(edges)) <= len(set(zip(labels, labels[1:])))

        for program in [self._counting_loop()] + corpus(random.Random(5), 40):
            edges = built(analyze_all_paths_with_stats, program)
            reachable = reachable_labels(program)
            cfg = {(label, s) for label in reachable for s in program.successors(label)}
            assert len(edges) == len(set(edges))
            assert not edges or set(edges) == cfg  # a sweep records every reachable edge


class TestOracle:
    @staticmethod
    def _visits(lookups, program):
        """The labels the oracle visits, in order: it reads a label's masks once per visit."""
        lookups.engine.clear()
        live_variables_oracle(program)
        return list(lookups.engine)

    def test_loop_free_chain_takes_one_visit_per_label(self, lookups):
        program = TestCheckCost._chain()
        visited = self._visits(lookups, program)
        assert len(program.labels) == 200
        assert visited == list(reversed(program.labels))

    def test_loop_takes_at_most_two_visits_per_label(self, lookups):
        program = TestCheckCost._counting_loop()
        visited = self._visits(lookups, program)
        assert len(program.labels) == 23
        assert set(visited) == set(program.labels)
        assert len(visited) <= 2 * len(program.labels)

    def test_analyses_call_no_successor_query(self, monkeypatch):
        """The oracle, ``sweep_order`` and the all-paths sweep read successors and predecessors
        from the program's table, with no query call per label."""
        calls = []
        for name in ("successors", "predecessors", "ordered_successors"):
            def counting(program, label, query=getattr(Program, name), name=name):
                calls.append(name)
                return query(program, label)

            monkeypatch.setattr(Program, name, counting)
        programs = [TestCheckCost._counting_loop(), parse_program(BRANCH)]
        for program in programs + corpus(random.Random(3), 20):
            assert program.sweep_order()
            analyze_all_paths_with_stats(program)
            live_variables_oracle(program)
        assert calls == []
        assert programs[1].successors("l0") == {"l1", "l3"} and calls == ["successors"]

    def test_loop_program(self):
        program = parse_program(LOOP)
        oracle = live_variables_oracle(program)
        concrete, _ = analyze_concrete(program)
        assert oracle == concrete

    def test_branch_program(self):
        program = parse_program(BRANCH)
        assert live_variables_oracle(program) == analyze_all_paths_with_stats(program)[0]

    def test_empty_read_program(self):
        program = parse_program("l0: x := 1\nl1: skip\nl2: halt\nl3: done")
        assert all(not v for v in live_variables_oracle(program).values())

    def test_oracle_on_unreachable_code_still_solves_equations(self):
        # the oracle is a whole-program fixpoint; unreachable labels may be
        # nonempty there, which is exactly why comparisons restrict to
        # reachable labels
        program = parse_program("l0: goto l2\nl1: q := r\nl2: halt\nl3: done")
        oracle = live_variables_oracle(program)
        assert oracle["l1"] == {"r"}


class TestRunStatsInvariant:
    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            RunStats(runs=3, mispredictions=0, constraint_repairs=0)
