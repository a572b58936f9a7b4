"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (pytest's own -v output doubles as the pass/fail record).
"""

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from prophecy.cli import main
from prophecy.core_lang import (
    ABin,
    Assign,
    Cmp,
    Done,
    Goto,
    Halt,
    If,
    Num,
    Program,
    Skip,
    Var,
    parse_program,
)
from prophecy.engine import (
    analyze_all_paths_with_stats,
    analyze_concrete,
    live_variables_oracle,
    reachable_labels,
)
from prophecy.extended import check_preservation, check_progress, command_obligations
from prophecy.einsum import build_matmul_benchmark, movement_summary
from prophecy.interp import interpret_program
from prophecy.nn import build_conv_relu_benchmark
from prophecy.second_stage import ForLoop, IfElse, emit_c
from randprog import corpus, has_back_edge, terminating_sample

LOOP_TEXT = """
l0: x := 10
l1: if x <= 0 then l4
l2: x := x - 1
l3: goto l1
l4: halt
l5: done
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def report(line: str) -> None:
    print(f"[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = random.Random(12345)
    programs = corpus(rng, 200)
    assert any(isinstance(c, If) for p in programs for _, c in p.commands)
    assert any(has_back_edge(p) for p in programs)
    for program in programs:
        assert len(program.commands) <= 25
        assert len(program.variables()) <= 6
        computed = analyze_all_paths_with_stats(program)[0]
        oracle = live_variables_oracle(program)
        for label in reachable_labels(program):
            assert computed[label] == oracle[label], (label, computed[label], oracle[label])
    report("criterion 1 (oracle equivalence, 200 random programs, exact): PASS")


# ---------------------------------------------------------------------------
# 2. Bisimulation along concrete executions
# ---------------------------------------------------------------------------


def test_criterion_2_bisimulation():
    rng = random.Random(24680)
    pairs = terminating_sample(rng, 100, max_steps=10_000)
    for program, state in pairs:
        results, stats = analyze_concrete(program, state, max_steps=10_000)
        bound = len(program.labels) * max(1, len(program.variables()))
        assert stats.mispredictions + stats.constraint_repairs <= bound
        preservation = check_preservation(program, results, state, max_steps=10_000)
        progress = check_progress(program, results, state, max_steps=10_000)
        assert preservation.passed, preservation
        assert progress.passed, progress
    report("criterion 2 (preservation+progress on 100 terminating runs, zero violations): PASS")


# ---------------------------------------------------------------------------
# 3. Leastness by brute-force enumeration
# ---------------------------------------------------------------------------


def _command_alphabet(names, labels):
    commands = [Skip()]
    for x in names:
        commands.append(Assign(x, Num(1)))
    for x in names:
        for y in names:
            if x != y:
                commands.append(Assign(x, Var(y)))
    if len(names) >= 2:
        ring = list(names)
        for i, x in enumerate(ring):
            y = ring[(i + 1) % len(ring)]
            z = ring[(i + 2) % len(ring)] if len(ring) >= 3 else x
            commands.append(Assign(x, ABin("+", Var(y), Var(z))))
    for x in names:
        for target in labels:
            commands.append(If(Cmp("<=", Var(x), Num(0)), target))
    for target in labels:
        commands.append(Goto(target))
    return commands


def _enumerate_bodies(names, body_len):
    labels = [f"l{i}" for i in range(body_len + 2)]
    alphabet = _command_alphabet(names, labels)
    for combo in itertools.product(alphabet, repeat=body_len):
        body = list(zip(labels, combo))
        body.append((labels[body_len], Halt()))
        body.append((labels[body_len + 1], Done()))
        yield Program(body)


def _loop_skeletons():
    names = ("a", "b", "c")
    for v1, v2, v3 in itertools.product(names, repeat=3):
        yield Program(
            [
                ("l0", Assign(v1, Num(1))),
                ("l1", If(Cmp("<=", Var(v2), Num(0)), "l5")),
                ("l2", Assign(v3, ABin("+", Var(v1), Var(v2)))),
                ("l3", Assign(v2, ABin("-", Var(v2), Num(1)))),
                ("l4", Goto("l1")),
                ("l5", Halt()),
                ("l6", Done()),
            ]
        )
    for v1, v2, v3 in itertools.product(names, repeat=3):
        yield Program(
            [
                ("l0", If(Cmp("<=", Var(v1), Num(0)), "l3")),
                ("l1", Assign(v2, Var(v3))),
                ("l2", Goto("l5")),
                ("l3", If(Cmp("=", Var(v2), Num(0)), "l5")),
                ("l4", Assign(v3, Var(v2))),
                ("l5", Goto("l6")),
                ("l6", Halt()),
                ("l7", Done()),
            ]
        )


def _reachable_obligations(program):
    reachable = sorted(reachable_labels(program), key=program.labels.index)
    position = {label: i for i, label in enumerate(reachable)}
    obligations = {label: command_obligations(program, label) for label in reachable}
    edges = [
        (label, successor)
        for label in reachable
        for successor in program.ordered_successors(label)
    ]
    return reachable, position, obligations, edges


def _least_by_per_variable_enumeration(program):
    """Exhaustive minimum over all satisfying assignments.

    Live-variable obligations constrain each variable independently, and the
    satisfying assignments are closed under intersection, so the least
    assignment is the per-variable intersection of all satisfying label
    sets — each of which we enumerate in full.
    """
    reachable, position, obligations, edges = _reachable_obligations(program)
    n = len(reachable)
    least = {label: set() for label in program.labels}
    for name in sorted(program.variables()):
        meet = None
        for mask in range(1 << n):
            ok = True
            for label in reachable:
                if name in obligations[label].precondition and not mask >> position[label] & 1:
                    ok = False
                    break
            if ok:
                for label, successor in edges:
                    if (
                        mask >> position[successor] & 1
                        and name not in obligations[label].prediction_extra
                        and not mask >> position[label] & 1
                    ):
                        ok = False
                        break
            if ok:
                meet = mask if meet is None else meet & mask
        assert meet is not None  # the full set always satisfies
        for label in reachable:
            if meet >> position[label] & 1:
                least[label].add(name)
    return {label: frozenset(s) for label, s in least.items()}


def _satisfies_jointly(program, assignment):
    reachable, _, obligations, edges = _reachable_obligations(program)
    for label in reachable:
        if not obligations[label].precondition <= assignment[label]:
            return False
    for label, successor in edges:
        if not assignment[successor] <= assignment[label] | obligations[label].prediction_extra:
            return False
    return True


def test_criterion_3_leastness():
    family = []
    family.extend(_enumerate_bodies(("a", "b", "c"), 1))
    family.extend(_enumerate_bodies(("a", "b", "c"), 2))
    family.extend(_enumerate_bodies(("a", "b"), 3))
    family.extend(_loop_skeletons())
    assert all(len(p.commands) <= 8 and len(p.variables()) <= 3 for p in family)

    joint_checked = 0
    for index, program in enumerate(family):
        computed = analyze_all_paths_with_stats(program)[0]
        reachable = reachable_labels(program)
        for label in program.labels:
            if label not in reachable:
                assert computed[label] == frozenset()
        least = _least_by_per_variable_enumeration(program)
        for label in program.labels:
            assert computed[label] == least[label], (index, label)

        if index % 97 == 0 and len(program.variables()) * len(reachable) <= 12:
            # joint enumeration over every assignment, validating the
            # per-variable decomposition on a sample
            names = sorted(program.variables())
            reachable_order = sorted(reachable, key=program.labels.index)
            assert _satisfies_jointly(program, computed)
            for combo in itertools.product(
                range(1 << len(names)), repeat=len(reachable_order)
            ):
                assignment = {label: frozenset() for label in program.labels}
                for label, mask in zip(reachable_order, combo):
                    assignment[label] = frozenset(
                        name for bit, name in enumerate(names) if mask >> bit & 1
                    )
                if _satisfies_jointly(program, assignment):
                    for label in reachable_order:
                        assert computed[label] <= assignment[label]
            joint_checked += 1

    assert joint_checked >= 10
    report(
        f"criterion 3 (leastness over {len(family)} exhaustively enumerated programs,"
        f" {joint_checked} joint cross-checks, exact): PASS"
    )


# ---------------------------------------------------------------------------
# 4. Strict-paper gap
# ---------------------------------------------------------------------------


def test_criterion_4_strict_paper_gap(tmp_path):
    program = parse_program(LOOP_TEXT)
    results, stats = analyze_concrete(program)
    assert stats.runs == 4
    assert results["l1"] == results["l2"] == results["l3"] == frozenset({"x"})
    assert check_progress(program, results).passed

    strict_results, _ = analyze_concrete(program, strict_paper=True)
    strict_report = check_progress(program, strict_results)
    assert not strict_report.passed
    assert strict_report.violation.kind == "prediction"
    assert (strict_report.violation.label, strict_report.violation.next_label) == ("l3", "l1")

    path = tmp_path / "loop.prog"
    path.write_text(LOOP_TEXT)
    code, out, _ = run_cli("analyze", str(path), "--mode", "concrete", "--check")
    assert code == 0 and "runs: 4" in out
    code, out, _ = run_cli(
        "analyze", str(path), "--mode", "concrete", "--strict-paper", "--check"
    )
    assert code == 1 and "prediction violation on edge l3 -> l1" in out
    report("criterion 4 (strict-paper gap at l3->l1; default fixpoint in 4 runs, exact): PASS")


# ---------------------------------------------------------------------------
# 5. Einsum data movement
# ---------------------------------------------------------------------------


def test_criterion_5_einsum_data_movement():
    program, stats = build_matmul_benchmark(8, 8, 8, "prophecy")
    moves = movement_summary(program)
    assert moves.device_allocations == {"x", "y", "z"}
    assert len(program.meta["tensors"]) == 6
    assert moves.copied_to_device == {"x", "y"}
    assert moves.copied_to_host == {"z"}
    assert stats.runs == stats.merges + 1
    assert stats.runs == 6

    code, out, _ = run_cli(
        "stage", "--dsl", "einsum-matmul", "--strategy", "prophecy", "--stats"
    )
    assert code == 0
    assert "runs: 6" in out
    assert "derivation: runs = merges + 1 = 5 + 1 = 6" in out
    for line in ("needs_gpu[x]", "needs_gpu[y]", "needs_gpu[z]", "gpu_read[x]", "gpu_read[y]"):
        assert line in out
    report("criterion 5 (matmul movement {x,y}->gpu, {z}->host, 3/6 allocs, runs=merges+1=6): PASS")


# ---------------------------------------------------------------------------
# 6. Conv/ReLU fusion
# ---------------------------------------------------------------------------


def _data_loops(stmts):
    loops = []
    for stmt in stmts:
        if isinstance(stmt, ForLoop):
            loops.append(stmt)
        elif isinstance(stmt, IfElse):
            loops.extend(_data_loops(stmt.then_body))
            loops.extend(_data_loops(stmt.else_body or []))
    return loops


def test_criterion_6_conv_relu_fusion():
    program, stats = build_conv_relu_benchmark(64, 9)
    assert stats.runs == 4
    branch_at = next(i for i, s in enumerate(program.body) if isinstance(s, IfElse))
    part1_loops = _data_loops(program.body[: branch_at + 1])
    part2_loops = _data_loops(program.body[branch_at + 1 :])
    assert len(part1_loops) == 3  # convolution plus two standalone ReLU loops
    assert len(part2_loops) == 1  # single fused loop nest over the tensor
    divergent_conv = part1_loops[0]
    assert not any(isinstance(s, IfElse) for s in divergent_conv.body)  # no clamp
    fused_conv = part2_loops[0]
    assert any(isinstance(s, ForLoop) for s in fused_conv.body)  # filter loop
    assert any(
        isinstance(s, IfElse) and s.else_body is None for s in fused_conv.body
    )  # in-loop clamp
    report("criterion 6 (4 prophecy runs; fused part 1 nest, divergent part 3 loops, exact): PASS")


# ---------------------------------------------------------------------------
# 7. Semantic preservation
# ---------------------------------------------------------------------------


def test_criterion_7_semantic_preservation():
    rng = np.random.default_rng(0)

    # conv/ReLU: fused vs force-unfused on 20 random inputs, both branches
    size, filter_size = 64, 9
    fused, _ = build_conv_relu_benchmark(size, filter_size)
    unfused, _ = build_conv_relu_benchmark(size, filter_size, fusion=False)
    for _ in range(20):
        data = rng.standard_normal(size).astype(np.float32) * 4
        weight = rng.standard_normal(filter_size).astype(np.float32)
        for flag in (0, 1):
            inputs = {
                "arg0": data,
                "arg1": weight,
                "arg2": flag,
                "arg3": np.zeros(size),
                "arg4": np.zeros(size),
            }
            a = interpret_program(fused, inputs)
            b = interpret_program(unfused, inputs)
            assert np.abs(a["arg3"] - b["arg3"]).max() <= 1e-6
            assert np.abs(a["arg4"] - b["arg4"]).max() <= 1e-6

    # einsum: strategies agree bit-for-bit on 20 random inputs
    m = n = o = 8
    programs = {
        strategy: build_matmul_benchmark(m, n, o, strategy)[0]
        for strategy in ("prophecy", "copy_all", "unified")
    }
    for _ in range(20):
        inputs = {
            "arg0": rng.random(m * n, dtype=np.float32),
            "arg1": rng.random(n * o, dtype=np.float32),
            "arg2": np.zeros(m * o, dtype=np.float32),
        }
        outs = {
            strategy: interpret_program(prog, inputs)["arg2"]
            for strategy, prog in programs.items()
        }
        assert np.array_equal(outs["prophecy"], outs["copy_all"])
        assert np.array_equal(outs["prophecy"], outs["unified"])

    # interpreted matmul vs a direct triple-loop oracle at size 64
    m = n = o = 64
    x = rng.random((m, n), dtype=np.float32)
    y = rng.random((n, o), dtype=np.float32)
    program, _ = build_matmul_benchmark(m, n, o, "prophecy")
    got = interpret_program(
        program, {"arg0": x, "arg1": y, "arg2": np.zeros(m * o)}
    )["arg2"].reshape(m, o)
    reference = np.zeros((m, o), dtype=np.float32)
    for i in range(m):
        for j in range(o):
            acc = np.float32(0.0)
            for k in range(n):
                acc = acc + x[i, k] * y[k, j]
            reference[i, j] = acc
    assert np.abs(got - reference).max() <= 1e-5
    report("criterion 7 (fused/unfused <=1e-6; strategies bit-identical; matmul <=1e-5): PASS")


# ---------------------------------------------------------------------------
# 8. Determinism & termination
# ---------------------------------------------------------------------------


def test_criterion_8_determinism_and_termination(tmp_path):
    loop = tmp_path / "loop.prog"
    loop.write_text(LOOP_TEXT)
    emit_a = tmp_path / "a.c"
    emit_b = tmp_path / "b.c"
    commands = [
        ("analyze", str(loop), "--mode", "concrete", "--check"),
        ("analyze", str(loop), "--mode", "all-paths", "--check", "--format", "json"),
        ("analyze", str(loop), "--mode", "concrete", "--strict-paper", "--check"),
        ("stage", "--dsl", "einsum-matmul", "--strategy", "prophecy", "--stats",
         "--run-interp", "--seed", "0"),
        ("stage", "--dsl", "einsum-matmul", "--strategy", "copy-all", "--m", "4",
         "--n", "4", "--o", "4", "--max-bid", "2", "--max-tid", "4", "--run-interp"),
        ("stage", "--dsl", "einsum-matvec", "--strategy", "unified", "--m", "4",
         "--n", "4", "--max-bid", "2", "--max-tid", "4", "--run-interp"),
        ("stage", "--dsl", "einsum-matmul", "--m", "4", "--n", "4", "--o", "4",
         "--max-bid", "2", "--max-tid", "4", "--diff-strategies"),
        ("stage", "--dsl", "nn-conv-relu", "--size", "16", "--filter-size", "3",
         "--stats", "--run-interp"),
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second, argv

    run_cli("stage", "--dsl", "nn-conv-relu", "--emit", str(emit_a))
    run_cli("stage", "--dsl", "nn-conv-relu", "--emit", str(emit_b))
    assert emit_a.read_bytes() == emit_b.read_bytes()

    # rerun ceiling: 1 + sum of lattice chain heights over created cells
    _, matmul_stats = build_matmul_benchmark(8, 8, 8, "prophecy")
    assert matmul_stats.runs <= 1 + 12  # 6 needs_gpu + 6 gpu_read cells, height 1 each
    _, nn_stats = build_conv_relu_benchmark(16, 3)
    assert nn_stats.runs <= 1 + 2 * 2  # 2 fusion cells, chain height 2 each

    stats_a = build_matmul_benchmark(8, 8, 8, "prophecy")[1]
    stats_b = build_matmul_benchmark(8, 8, 8, "prophecy")[1]
    assert stats_a == stats_b
    report("criterion 8 (byte-identical CLI reruns; termination within rank bounds): PASS")
