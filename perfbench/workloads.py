"""The benchmark's four workloads: seeded inputs with known answers, the
library calls of one request, and the check that gates every request.

Every workload is a pool of items generated from the seed.  Sizes sit on
fixed grids over the stated ranges (except where cost does not depend on
them) and the seed draws everything else: constants, operators, branch
placement, array contents.  So two seeds give different programs and
arrays with nearly the same cost distribution, which keeps medians steady
from seed to seed.

A request calls only public functions of ``prophecy`` and only through the
``call`` function it is given, which is how the traced pass sees each layer.
The check runs outside the timed interval.  It returns the request's
deterministic work counters and the list of what was wrong; an empty list is
a correct request.  Counter names match the per-layer metric they add to.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from prophecy import (
    TraceKind,
    analyze_concrete,
    build_conv_relu_benchmark,
    build_matmul_benchmark,
    build_matvec_benchmark,
    check_preservation,
    check_progress,
    emit_c,
    interpret_program,
    live_variables_oracle,
    movement_summary,
    parse_program,
    run_trace,
)
from prophecy.engine import analyze_all_paths_with_stats, reachable_labels

Call = Callable[..., Any]

# Step budget for analysis and checks; generated programs finish well inside it.
MAX_STEPS = 100_000

# Float32 results against float64 references: |got - ref| <= REL_TOL * sum|terms| + ABS_TOL.
# Accumulating at most 32 products in float32 errs by under 32 * 2**-24 ≈ 2e-6 of sum|terms|.
REL_TOL = 1e-5
ABS_TOL = 1e-6

STRATEGIES = ("prophecy", "copy_all", "unified")

# Pinned facts of the staged DSLs.
PROPHECY_RUNS = 6
PLAIN_STRATEGY_RUNS = 1
CONV_RUNS = 4
PROPHECY_TO_DEVICE = frozenset({"x", "y"})
PROPHECY_TO_HOST = frozenset({"z"})

# Threshold of the first ReLU of the conv benchmark by branch flag; the second is fixed.
CONV_PART1_THRESHOLD = {1: 2.0, 0: 4.0}
CONV_PART2_THRESHOLD = 1.56

ELEM_BYTES = 4


@dataclass
class Item:
    """One request's inputs and known answers.  ``group`` names items that must agree bit for bit."""

    key: str
    params: dict[str, Any]
    expected: dict[str, Any] = field(default_factory=dict)
    group: str | None = None


@dataclass(frozen=True)
class Workload:
    """``check(item, out, call, memo)`` gates the output ``out`` of ``request(item, call)``.

    ``memo`` is shared by the checks of one pass: it keeps each item's plain
    step count and the first outputs of each bit-identical group.
    """

    name: str
    pool: Callable[[int], list[Item]]
    request: Callable[[Item, Call], Any]
    check: Callable[[Item, Any, Call, dict], tuple[dict[str, Any], list[str]]]


def spaced(count: int, lo: int, hi: int, *, log: bool = False) -> list[int]:
    """``count`` sizes from lo to hi, evenly spaced (geometrically with ``log``)."""
    if log:
        return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]
    return [round(lo + (hi - lo) * k / (count - 1)) for k in range(count)]


def interleaved(rng: random.Random, items: list[Item], cost: Callable[[Item], float]) -> list[Item]:
    """Order items so that every stretch of the cycle mixes cheap and costly ones.

    Position p holds the item of cost rank bit-reverse(p), so a run that
    stops part way through a cycle still sees the pool's cost distribution.
    Items of equal estimated cost fall in seeded order.
    """
    rng.shuffle(items)
    ranked = sorted(items, key=cost)
    return [ranked[r] for r in sorted(range(len(ranked)), key=lambda r: int(f"{r:032b}"[::-1], 2))]


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# Core-language programs
# --------------------------------------------------------------------------


def _number(commands: list[str], targets: dict[str, int]) -> str:
    labels = {name: f"l{index}" for name, index in targets.items()}
    return "\n".join(f"l{k}: {cmd.format(**labels)}" for k, cmd in enumerate(commands)) + "\n"


def counting_loop(rng: random.Random, variables: int, iterations: int, branch: bool) -> tuple[str, int]:
    """A loop run ``iterations`` times over ``variables`` variables, and its step count.

    The counter ``i`` counts down; each accumulator adds or subtracts the
    next one (the last reads ``i``), so every variable is live in the loop
    and the rerun engine discovers them one label at a time.  With
    ``branch`` a conditional skips the second half of the body once ``i``
    drops to a seeded threshold near ``iterations / 2``.  The step count
    is worked out here, independently of the library: one transition per
    executed command before ``done``.
    """
    accumulators = [f"a{j}" for j in range(1, variables)]
    commands = [f"i := {iterations}"] + [f"{a} := {rng.randint(0, 9)}" for a in accumulators]
    head = len(commands)
    commands.append("if i <= 0 then {end}")
    body = []
    for j, acc in enumerate(accumulators):
        source = accumulators[j + 1] if j + 1 < len(accumulators) else "i"
        body.append(f"{acc} := {acc} {rng.choice('+-')} {source}")
    split = len(body) // 2 if branch else len(body)
    threshold = iterations // 2 + rng.randint(-(iterations // 20), iterations // 20)
    commands += body[:split]
    if branch:
        commands.append(f"if i <= {threshold} then {{dec}}")
    commands += body[split:]
    dec = len(commands)
    commands += ["i := i - 1", f"goto l{head}"]
    end = len(commands)
    commands += ["halt", "done"]

    tail_runs = sum(1 for i in range(iterations, 0, -1) if not (branch and i <= threshold))
    per_iteration = split + int(branch) + 2
    steps = variables + (iterations + 1) + iterations * per_iteration
    steps += (len(body) - split) * tail_runs + 1
    return _number(commands, {"end": end, "dec": dec}), steps


def diamond_chain(rng: random.Random, length: int) -> tuple[str, int]:
    """An assignment chain of about ``length`` labels with forward diamonds, and its step count.

    Each link reads the variable the previous link wrote (eight variables
    are reused in turn), so an all-paths sweep finds one new obligation per
    link.  One link in each block of four, at a seeded place, is a diamond:
    a conditional on the chain value whose two arms write the next variable
    differently.  Fixing the share of diamonds fixes the number of links a
    chain of ``length`` labels has, and so its cost, whatever the seed.
    The chain value is tracked here to know which arm the execution takes.
    """
    names = [f"x{k}" for k in range(8)]
    value = rng.randint(0, 9)
    commands = [f"x0 := {value}"]
    steps = 1
    link = 0
    while len(commands) < length - 2:
        source, target = names[link % 8], names[(link + 1) % 8]
        if link % 4 == 0:
            diamond_at = rng.randrange(4)
        diamond = link % 4 == diamond_at
        link += 1
        up, down = rng.randint(1, 5), rng.randint(1, 5)
        if diamond and len(commands) + 4 <= length - 2:
            threshold = max(0, value + rng.randint(-3, 3))  # the language has no negative literals
            base = len(commands)
            commands += [
                f"if {source} <= {threshold} then l{base + 3}",
                f"{target} := {source} + {up}",
                f"goto l{base + 4}",
                f"{target} := {source} - {down}",
            ]
            if value <= threshold:
                value -= down
                steps += 2
            else:
                value += up
                steps += 3
        else:
            commands.append(f"{target} := {source} + {up}")
            value += up
            steps += 1
    commands += ["halt", "done"]
    return _number(commands, {}), steps + 1


def loop_item(rng: random.Random, key: str, variables: int, iterations: int, branch: bool) -> Item:
    text, steps = counting_loop(rng, variables, iterations, branch)
    return Item(key, {"text": text, "variables": variables}, {"steps": steps})


def chain_item(rng: random.Random, key: str, length: int) -> Item:
    text, steps = diamond_chain(rng, length)
    return Item(key, {"text": text, "length": length}, {"steps": steps})


def concrete_pool(seed: int) -> list[Item]:
    """105 loops: V and N on 14 log-spaced sizes each, over [4, 32] and [20, 200].

    The pairs are the lower triangle of that grid (size index of V plus
    that of N at most 13), so both ranges are covered end to end while the
    costly corner where both are large, which would take most of a pass,
    is left out.  A pass stays short enough that each loop repeats several
    times in a run.  Every other loop has a branch.  The seed draws each
    program's constants, operators and branch threshold.
    """
    rng = random.Random(seed)
    grid = 14
    items = []
    for vi, v in enumerate(spaced(grid, 4, 32, log=True)):
        for ni, n in enumerate(spaced(grid, 20, 200, log=True)[: grid - vi]):
            branch = (vi + ni) % 2 == 1
            key = f"loop{vi}.{ni}-v{v}-n{n}{'-branch' if branch else ''}"
            items.append(loop_item(rng, key, v, n, branch))
    # per-step cost grows with V because each step sorts the whole state
    return interleaved(rng, items, lambda item: item.expected["steps"] * (16 + 3 * item.params["variables"]))


def allpaths_pool(seed: int) -> list[Item]:
    """100 chains with L evenly spaced in 1/L**2 over [50, 250]; the seed draws diamonds and constants.

    An all-paths analysis of L labels costs a little over L**2, so sizes
    thin out as L grows (their density falls as L**-3): every size class
    takes a share of a pass, and a pass stays short enough that each chain
    repeats several times in a run.
    """
    rng = random.Random(seed)
    count, lo, hi = 100, 50, 250
    lengths = [round((lo**-2 - (lo**-2 - hi**-2) * k / (count - 1)) ** -0.5) for k in range(count)]
    items = [chain_item(rng, f"chain{k}-L{length}", length) for k, length in enumerate(lengths)]
    return interleaved(rng, items, lambda item: item.params["length"])


def _plain_steps(item: Item, program, call: Call, memo: dict) -> tuple[int, list[str]]:
    """Transitions of the plain execution, once per item and pass."""
    key = ("plain", item.key)
    if key not in memo:
        trace = call("core_lang.run_trace", run_trace, program, None, MAX_STEPS)
        errors = []
        if trace.kind is not TraceKind.COMPLETE:
            errors.append(f"plain execution is {trace.kind.value}, expected complete")
        if len(trace) - 1 != item.expected["steps"]:
            errors.append(f"plain execution takes {len(trace) - 1} steps, expected {item.expected['steps']}")
        memo[key] = (len(trace) - 1, errors)
    return memo[key]


def _check_verdicts(item: Item, program, reports, call: Call, memo: dict) -> tuple[int, list[str]]:
    steps, errors = _plain_steps(item, program, call, memo)
    errors = list(errors)
    for report in reports:
        if not report.passed:
            errors.append(f"{report.check} failed: {report.violation}")
        if report.steps_checked != steps:
            errors.append(f"{report.check} checked {report.steps_checked} of {steps} steps")
    return steps, errors


def _beta(program, results) -> dict[str, list[str]]:
    return {label: sorted(results[label]) for label in program.labels}


def concrete_request(item: Item, call: Call):
    program = call("core_lang.parse", parse_program, item.params["text"])
    results, stats = call("engine.analyze_concrete", analyze_concrete, program, None, MAX_STEPS)
    oracle = call("engine.oracle", live_variables_oracle, program)
    preservation = call(
        "extended.check_preservation", check_preservation, program, results, None, MAX_STEPS
    )
    progress = call("extended.check_progress", check_progress, program, results, None, MAX_STEPS)
    return program, results, stats, oracle, preservation, progress


def concrete_check(item: Item, out, call: Call, memo: dict):
    program, results, stats, oracle, preservation, progress = out
    steps, errors = _check_verdicts(item, program, (preservation, progress), call, memo)
    beyond = [label for label in program.labels if not results[label] <= oracle[label]]
    if beyond:
        errors.append(f"results exceed the oracle at {beyond[:3]}")
    if stats.runs != stats.mispredictions + stats.constraint_repairs + 1:
        errors.append(f"runs != mispredictions + repairs + 1 in {stats}")
    counters = {
        "core_lang.trace_steps": steps,
        "engine.concrete.runs": stats.runs,
        "engine.concrete.mispredictions": stats.mispredictions,
        "engine.concrete.constraint_repairs": stats.constraint_repairs,
        "extended.steps_checked": preservation.steps_checked + progress.steps_checked,
        "results_sha256": digest(_beta(program, results)),
    }
    return counters, errors


def allpaths_request(item: Item, call: Call):
    program = call("core_lang.parse", parse_program, item.params["text"])
    results, stats = call("engine.analyze_all_paths", analyze_all_paths_with_stats, program)
    oracle = call("engine.oracle", live_variables_oracle, program)
    reachable = call("engine.reachable_labels", reachable_labels, program)
    preservation = call(
        "extended.check_preservation", check_preservation, program, results, None, MAX_STEPS
    )
    progress = call("extended.check_progress", check_progress, program, results, None, MAX_STEPS)
    return program, results, stats, oracle, reachable, preservation, progress


def allpaths_check(item: Item, out, call: Call, memo: dict):
    program, results, stats, oracle, reachable, preservation, progress = out
    steps, errors = _check_verdicts(item, program, (preservation, progress), call, memo)
    differ = sorted(label for label in reachable if results[label] != oracle[label])
    if differ:
        errors.append(f"results differ from the oracle at {differ[:3]}")
    if len(reachable) != len(program.labels):
        errors.append(f"{len(reachable)} of {len(program.labels)} labels reachable, expected all")
    if stats.passes != stats.mispredictions + stats.constraint_repairs + 1:
        errors.append(f"passes != mispredictions + repairs + 1 in {stats}")
    counters = {
        "core_lang.trace_steps": steps,
        "engine.all_paths.passes": stats.passes,
        "extended.steps_checked": preservation.steps_checked + progress.steps_checked,
        "results_sha256": digest(_beta(program, results)),
    }
    return counters, errors


# --------------------------------------------------------------------------
# Staged DSLs
# --------------------------------------------------------------------------


def einsum_item(key: str, kind: str, dims: tuple[int, ...], strategy: str, group: str) -> Item:
    return Item(key, {"kind": kind, "dims": dims, "strategy": strategy}, group=group)


def conv_item(key: str, size: int, filter_size: int, flag: int) -> Item:
    return Item(key, {"kind": "conv", "size": size, "filter": filter_size, "flag": flag})


def build(item: Item, call: Call):
    params = item.params
    if params["kind"] == "matmul":
        return call("einsum.build", build_matmul_benchmark, *params["dims"], params["strategy"])
    if params["kind"] == "matvec":
        return call("einsum.build", build_matvec_benchmark, *params["dims"], params["strategy"])
    return call("nn.build", build_conv_relu_benchmark, params["size"], params["filter"])


def codegen_request(item: Item, call: Call):
    program, stats = build(item, call)
    code = call("second_stage.emit_c", emit_c, program)
    return program, stats, code


def codegen_check(item: Item, out, call: Call, memo: dict):
    program, stats, code = out[:3]
    params = item.params
    errors = []
    if stats.runs != stats.merges + 1:
        errors.append(f"runs {stats.runs} != merges {stats.merges} + 1")
    counters: dict[str, Any] = {
        "staging.runs": stats.runs,
        "staging.merges": stats.merges,
        "second_stage.emitted_bytes": len(code.encode()),
        "emitted_sha256": hashlib.sha256(code.encode()).hexdigest(),
    }
    if params["kind"] == "conv":
        if stats.runs != CONV_RUNS:
            errors.append(f"conv settled in {stats.runs} runs, expected {CONV_RUNS}")
        return counters, errors
    pinned = PROPHECY_RUNS if params["strategy"] == "prophecy" else PLAIN_STRATEGY_RUNS
    if stats.runs != pinned:
        errors.append(f"{params['kind']} {params['strategy']} settled in {stats.runs} runs, expected {pinned}")
    moves = call("einsum.movement_summary", movement_summary, program)
    if params["strategy"] == "prophecy" and (
        moves.copied_to_device != PROPHECY_TO_DEVICE or moves.copied_to_host != PROPHECY_TO_HOST
    ):
        errors.append(f"prophecy moved {sorted(moves.copied_to_device)} in, {sorted(moves.copied_to_host)} out")
    tensors = program.meta["tensors"]
    counters["einsum.moved_bytes"] = ELEM_BYTES * sum(
        int(np.prod(tensors[name]["sizes"]))
        for names in (moves.copied_to_device, moves.copied_to_host)
        for name in names
    )
    return counters, errors


def codegen_pool(seed: int) -> list[Item]:
    """900 einsum builds (300 seeded shapes with sides 4-32, x 3 strategies) and 300 conv builds."""
    rng = random.Random(seed)
    items = []
    for base in range(300):
        kind = "matvec" if base % 3 == 0 else "matmul"
        dims = tuple(rng.randint(4, 32) for _ in range(2 if kind == "matvec" else 3))
        for strategy in STRATEGIES:
            items.append(einsum_item(f"{kind}{base}-{strategy}", kind, dims, strategy, f"{kind}{base}"))
    for k in range(300):
        size, filter_size = rng.randint(16, 1024), rng.randint(3, 15)
        items.append(conv_item(f"conv{k}-{size}x{filter_size}", size, filter_size, k % 2))
    # build cost follows the rerun count, not the sizes
    runs = {"prophecy": PROPHECY_RUNS, "copy_all": PLAIN_STRATEGY_RUNS,
            "unified": PLAIN_STRATEGY_RUNS, None: CONV_RUNS}
    return interleaved(rng, items, lambda item: runs[item.params.get("strategy")])


def add_inputs(item: Item, rng: np.random.Generator) -> None:
    """Seeded float32 inputs and the float64 numpy reference of the outputs."""
    params = item.params
    if params["kind"] == "conv":
        size, filter_size = params["size"], params["filter"]
        data = rng.standard_normal(size, dtype=np.float32) * np.float32(4)
        weight = rng.standard_normal(filter_size, dtype=np.float32)
        params["inputs"] = {
            "arg0": data,
            "arg1": weight,
            "arg2": params["flag"],
            "arg3": np.zeros(size, dtype=np.float32),
            "arg4": np.zeros(size, dtype=np.float32),
        }
        window = (np.arange(size)[:, None] + np.arange(filter_size)[None, :]) % size
        terms = data.astype(np.float64)[window] * weight.astype(np.float64)[None, :]
        item.expected.update(pre=terms.sum(axis=1), scale=np.abs(terms).sum(axis=1))
        return
    dims = params["dims"]
    if params["kind"] == "matmul":
        m, n, o = dims
        x = rng.random(m * n, dtype=np.float32)
        y = rng.random(n * o, dtype=np.float32)
        shape_y, out_size = (n, o), m * o
    else:
        m, n = dims
        x = rng.random(m * n, dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        shape_y, out_size = (n,), m
    params["inputs"] = {"arg0": x, "arg1": y, "arg2": np.zeros(out_size, dtype=np.float32)}
    xs, ys = x.astype(np.float64).reshape(m, n), y.astype(np.float64).reshape(shape_y)
    # inputs are non-negative, so the sum of absolute products is the product itself
    reference = (xs @ ys).ravel()
    item.expected.update(reference=reference, scale=reference)


def madds(item: Item) -> int:
    params = item.params
    if params["kind"] == "conv":
        return 2 * params["size"] * params["filter"]
    return int(np.prod(params["dims"]))


def run_request(item: Item, call: Call):
    program, stats, code = codegen_request(item, call)
    outputs = call("interp.interpret_program", interpret_program, program, item.params["inputs"])
    return program, stats, code, outputs


def _within(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(got.astype(np.float64) - want) <= REL_TOL * scale + ABS_TOL


def _relu_errors(name: str, got: np.ndarray, pre: np.ndarray, scale: np.ndarray, threshold: float) -> list[str]:
    """ReLU(x) = x if x >= threshold else 0; values within tolerance of the threshold may go either way."""
    want = np.where(pre >= threshold, pre, 0.0)
    ambiguous = np.abs(pre - threshold) <= REL_TOL * scale + ABS_TOL
    ok = _within(got, want, scale) | (ambiguous & ((got == 0) | _within(got, pre, scale)))
    if ok.all():
        return []
    bad = int(np.argmin(ok))
    return [f"{name}[{bad}] = {got[bad]!r}, reference {want[bad]!r}"]


def run_check(item: Item, out, call: Call, memo: dict):
    counters, errors = codegen_check(item, out, call, memo)
    program, outputs = out[0], out[3]
    params, expected = item.params, item.expected
    inputs = params["inputs"]
    for name in ("arg0", "arg1"):
        if not np.array_equal(outputs[name], inputs[name]):
            errors.append(f"input {name} was modified")
    if params["kind"] == "conv":
        errors += _relu_errors("arg3", outputs["arg3"], expected["pre"], expected["scale"],
                               CONV_PART1_THRESHOLD[params["flag"]])
        errors += _relu_errors("arg4", outputs["arg4"], expected["pre"], expected["scale"],
                               CONV_PART2_THRESHOLD)
        grid = 0
    else:
        ok = _within(outputs["arg2"], expected["reference"], expected["scale"])
        if not ok.all():
            bad = int(np.argmin(ok))
            errors.append(f"arg2[{bad}] = {outputs['arg2'][bad]!r}, reference {expected['reference'][bad]!r}")
        first = memo.setdefault(("group", item.group), (item.key, outputs))
        if not all(np.array_equal(first[1][name], outputs[name]) for name in outputs):
            errors.append(f"outputs differ bit for bit from {first[0]}")
        grid = int(np.prod(program.meta["grid"]))
    counters.update({
        "interp.madds": madds(item),
        "interp.grid_cells": grid,
        "outputs_sha256": hashlib.sha256(
            b"".join(np.ascontiguousarray(outputs[name]).tobytes() for name in sorted(outputs)
                     if isinstance(outputs[name], np.ndarray))
        ).hexdigest(),
    })
    return counters, errors


def stage_run_pool(seed: int) -> list[Item]:
    """Fewer, larger requests: 10 matmul and 8 matvec shapes x 3 strategies, and 48 convs.

    Matmul and matvec sides are log-spaced over [4, 32]: at 4 the 40 x 512
    default grid is mostly idle, at 32 the kernel is arithmetic-bound.
    Conv sizes are log-spaced over [16, 1024], each paired with a filter of
    3-15 taps by a fixed stride through the filter sizes.  The seed draws
    the arrays and the conv branch flags.
    """
    rng = random.Random(seed)
    arrays = np.random.default_rng(seed)
    items = []

    def strategies(kind: str, base: int, dims: tuple[int, ...]) -> None:
        group = [einsum_item(f"{kind}{base}-{s}", kind, dims, s, f"{kind}{base}") for s in STRATEGIES]
        add_inputs(group[0], arrays)
        for item in group[1:]:
            item.params["inputs"], item.expected = group[0].params["inputs"], group[0].expected
        items.extend(group)

    for base, side in enumerate(spaced(10, 4, 32, log=True)):
        strategies("matmul", base, (side, side, side))
    for base, side in enumerate(spaced(8, 4, 32, log=True)):
        strategies("matvec", base, (side, side))
    convs = 48
    filters = spaced(convs, 3, 15)
    for k, size in enumerate(spaced(convs, 16, 1024, log=True)):
        filter_size = filters[k * 19 % convs]
        item = conv_item(f"conv{k}-{size}x{filter_size}", size, filter_size, rng.randint(0, 1))
        add_inputs(item, arrays)
        items.append(item)
    # an idle 40 x 512 grid costs about as much as 5000 multiply-adds
    return interleaved(rng, items, lambda item: madds(item) + (0 if item.params["kind"] == "conv" else 5000))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-concrete", concrete_pool, concrete_request, concrete_check),
        Workload("analyze-allpaths", allpaths_pool, allpaths_request, allpaths_check),
        Workload("stage-codegen", codegen_pool, codegen_request, codegen_check),
        Workload("stage-run", stage_run_pool, run_request, run_check),
    )
}


# --------------------------------------------------------------------------
# CLI cases
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    """A ``prophecy`` command line and the library request its output must agree with.

    ``argv`` may name ``{program}`` (the item's program text is written
    there) and ``{emit}`` (where ``stage --emit`` writes its C).
    """

    workload: str
    item: Item
    argv: list[str]


def cli_cases(seed: int) -> list[CliCase]:
    """One small request per command and mode: both analyze modes, two staged DSLs."""
    rng = random.Random(seed)
    arrays = np.random.default_rng(seed)
    loop = loop_item(rng, "cli-loop", rng.randint(4, 6), rng.randint(20, 30), True)
    chain = chain_item(rng, "cli-chain", rng.randint(20, 30))
    m, n, o = (rng.randint(4, 8) for _ in range(3))
    matmul = einsum_item("cli-matmul", "matmul", (m, n, o), "prophecy", "cli-matmul")
    size, filter_size = rng.randint(16, 64), rng.randint(3, 5)
    conv = conv_item("cli-conv", size, filter_size, rng.randint(0, 1))
    for item in (matmul, conv):
        add_inputs(item, arrays)
    analyze = ["analyze", "{program}", "--check", "--format", "json", "--max-steps", str(MAX_STEPS)]
    stage = ["--emit", "{emit}", "--stats", "--run-interp", "--seed", str(seed)]
    return [
        CliCase("analyze-concrete", loop, analyze),
        CliCase("analyze-allpaths", chain, analyze + ["--mode", "all-paths"]),
        CliCase("stage-run", matmul,
                ["stage", "--dsl", "einsum-matmul", "--m", str(m), "--n", str(n), "--o", str(o)] + stage),
        CliCase("stage-run", conv,
                ["stage", "--dsl", "nn-conv-relu", "--size", str(size), "--filter-size", str(filter_size)] + stage),
    ]


def cli_errors(case: CliCase, code: int, stdout: str, emitted: str | None, out) -> list[str]:
    """What differs between the command's output and the library's results ``out``."""
    if code != 0:
        return [f"exit code {code}"]
    if case.workload.startswith("analyze"):
        program, results, stats = out[:3]
        report = json.loads(stdout)
        runs = stats.runs if case.workload == "analyze-concrete" else stats.passes
        want = {
            "runs": runs,
            "mispredictions": stats.mispredictions,
            "constraint_repairs": stats.constraint_repairs,
            "beta": _beta(program, results),
            "oracle_match": True,
            "preservation": True,
            "progress": True,
        }
        return [f"{key} is {report.get(key)!r}, library gives {value!r}"
                for key, value in want.items() if report.get(key) != value]
    program, stats, code_text = out[:3]
    errors = []
    if emitted != code_text:
        errors.append("emitted C differs from emit_c")
    lines = stdout.splitlines()
    for line in (f"runs: {stats.runs}", f"merges: {stats.merges}"):
        if line not in lines:
            errors.append(f"no line {line!r} in the stats")
    arrays = sum(isinstance(v, np.ndarray) for v in case.item.params["inputs"].values())
    cases = 2 if case.item.params["kind"] == "conv" else 1
    checksums = sum(line.startswith("checksum[") for line in lines)
    if checksums != arrays * cases:
        errors.append(f"{checksums} checksum lines, expected {arrays * cases}")
    return errors
