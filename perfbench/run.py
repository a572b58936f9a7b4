#!/usr/bin/env python3
"""Benchmark of the prophecy library, one workload per invocation.

    python3 perfbench/run.py --workload analyze-concrete --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports ``prophecy`` from
``src/`` of that checkout and from nowhere else.  A closed loop with one
client, in one process and one thread, sends the workload's seeded requests
one after another, each only after the previous one finished, and checks
every output against a known answer outside the timed interval.

``--trace 0`` measures the end-to-end metrics: it times the loop for
``--seconds`` and at least two passes over the pool, and times SETUP_PROBES
fresh processes from their start to their first request being ready.
Timings are scaled to a reference CPU speed (see ``speed_probe``).
Latency percentiles are taken over the pool's items, each at the mean of
its runs; every pool has at least 100 items, so p90 keeps ten beyond it.
``--trace 1`` measures the per-layer metrics:
one pass over the pool that runs each item untraced and, back to back, with
a span around every library call, then the CLI cases, traced; it ignores
``--seconds``.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracing import Tracer, direct_call, root_of, self_times

STARTED = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOAD_NAMES = ("analyze-concrete", "analyze-allpaths", "stage-codegen", "stage-run")
SETUP_PROBES = 7
# stop the timed loop early rather than overrun the 180 s a run may take
DEADLINE_S = 140.0
CHILD_TIMEOUT_S = 60.0
MAX_ERRORS_SHOWN = 10
# Timings are scaled to a CPU on which one speed probe takes REFERENCE_PROBE_S.
PROBE_ITERATIONS = 2000
REFERENCE_PROBE_S = 2.5e-4
SETUP_PROBE_SAMPLES = 200

# per-layer busy-time metrics and the span each one sums
BUSY = {
    "core_lang.parse.busy_s": "core_lang.parse",
    "core_lang.run_trace.busy_s": "core_lang.run_trace",
    "engine.analyze_concrete.busy_s": "engine.analyze_concrete",
    "engine.analyze_all_paths.busy_s": "engine.analyze_all_paths",
    "engine.oracle.busy_s": "engine.oracle",
    "extended.check_preservation.busy_s": "extended.check_preservation",
    "extended.check_progress.busy_s": "extended.check_progress",
    "einsum.build.busy_s": "einsum.build",
    "nn.build.busy_s": "nn.build",
    "second_stage.emit_c.busy_s": "second_stage.emit_c",
    "interp.interpret_program.busy_s": "interp.interpret_program",
    "cli.main.busy_s": "cli.main",
}
COUNTERS = (
    "core_lang.trace_steps",
    "engine.concrete.runs",
    "engine.concrete.mispredictions",
    "engine.concrete.constraint_repairs",
    "engine.all_paths.passes",
    "extended.steps_checked",
    "staging.runs",
    "staging.merges",
    "einsum.moved_bytes",
    "second_stage.emitted_bytes",
    "interp.grid_cells",
)
LAYERS = ("core_lang", "engine", "extended", "einsum", "nn", "second_stage", "interp", "cli")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


@dataclass
class PassResult:
    """What one pass over requests measured and checked."""

    latencies: list[float] = field(default_factory=list)
    # (item key, latency) of each request; in the timed loop, probes[i] ran just before samples[i]
    samples: list[tuple[str, float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    counters: dict[str, dict[str, Any]] = field(default_factory=dict)
    totals: Counter = field(default_factory=Counter)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, key: str, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{key}: {error}" for error in errors)


def serve(workload, item, tracer, memo: dict, result: PassResult):
    """One request: timed library calls, then the untimed check.  Returns the library output."""
    call = tracer.call if tracer is not None else direct_call
    errors: list[str] = []
    out = None
    start = time.perf_counter()
    try:
        out = call("bench.request", workload.request, item, call)
    except Exception as exc:  # a raising request is a failed request, not a failed run
        errors.append(f"raised {exc!r}")
    latency = time.perf_counter() - start
    result.latencies.append(latency)
    result.samples.append((item.key, latency))
    if out is not None:
        try:
            counters, problems = call("bench.check", workload.check, item, out, call, memo)
        except Exception as exc:
            errors.append(f"check raised {exc!r}")
        else:
            errors += problems
            first = result.counters.setdefault(item.key, counters)
            if first != counters:
                errors.append("work counters differ from the item's first run")
            result.totals.update({k: v for k, v in counters.items() if isinstance(v, int)})
    if errors:
        result.fail(item.key, errors)
    return out


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now, with the collector off.

    On a shared machine a core's speed flips within a second between a
    fast and a slow state, and the share of time spent slow drifts over
    minutes.  A request of the library is pure Python too, and its latency
    follows the time of the probes that bracket it: scaling each request by
    REFERENCE_PROBE_S over their mean takes most of the noise out.  The
    probe does not depend on ``prophecy``, so a change to the library moves
    the request times and not the scale.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i % 97] = table.get(i % 89, 0) + i
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def timed_loop(workload, pool, seconds: int) -> PassResult:
    """Cycle through the pool for ``seconds`` and at least two full cycles, a speed probe before each request.

    Each cycle runs on the next CPU of the process's set in turn, so the
    repeats of an item land on different cores and one core slowed by a
    neighbour does not slow all of them.
    """
    result, memo = PassResult(), {}
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.perf_counter()
    minimum = 2 * len(pool)  # every item runs twice, so its counters are reproduced
    count = 0
    try:
        while True:
            if count % len(pool) == 0:
                os.sched_setaffinity(0, {cpus[count // len(pool) % len(cpus)]})
            result.probes.append(speed_probe())
            serve(workload, pool[count % len(pool)], None, memo, result)
            count += 1
            now = time.perf_counter()
            if (now - begin >= seconds and count >= minimum) or now - STARTED >= DEADLINE_S:
                return result
    finally:
        os.sched_setaffinity(0, cpus)


def paired_passes(workload, pool, tracer) -> tuple[PassResult, PassResult]:
    """Each item once untraced and once traced, back to back in alternating order.

    Pairing the two runs of an item lets drift in machine speed cancel out
    of the tracing overhead.
    """
    plain, traced = PassResult(), PassResult()
    plain_memo: dict = {}
    traced_memo: dict = {}
    for index, item in enumerate(pool):
        if time.perf_counter() - STARTED >= DEADLINE_S:
            break
        tracer.request += 1
        runs = [(None, plain_memo, plain), (tracer, traced_memo, traced)]
        for which, memo, result in runs if index % 2 == 0 else reversed(runs):
            serve(workload, item, which, memo, result)
    return plain, traced


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def mean_probe() -> float:
    return statistics.fmean(speed_probe() for _ in range(SETUP_PROBE_SAMPLES))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first request being ready, at the reference speed.

    The speed is the mean of the probes run just before and just after the process.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    before = mean_probe()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return ready * REFERENCE_PROBE_S / statistics.fmean((before, mean_probe()))


def run_cli(seed: int, workloads: dict, tracer, cold_start: bool) -> tuple[PassResult, float | None]:
    """Run each CLI case in process and compare it with the same request made through the library."""
    from prophecy.cli import main as cli_main
    from workloads import cli_cases, cli_errors

    call = tracer.call if tracer is not None else direct_call
    result, memo = PassResult(), {}
    cold = None
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT) as workdir:
        paths = {"program": str(Path(workdir) / "program.txt"), "emit": str(Path(workdir) / "emitted.c")}
        for case in cli_cases(seed):
            if tracer is not None:
                tracer.request += 1
            out = serve(workloads[case.workload], case.item, tracer, memo, result)
            if "text" in case.item.params:
                Path(paths["program"]).write_text(case.item.params["text"], encoding="utf-8")
            argv = [arg.format(**paths) for arg in case.argv]
            stdout = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = call("cli.main", cli_main, argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:
                code, errors = None, [f"raised {exc!r}"]
            result.latencies.append(time.perf_counter() - start)
            if code is not None:
                emitted = Path(paths["emit"]).read_text(encoding="utf-8") if "{emit}" in case.argv else None
                errors = cli_errors(case, code, stdout.getvalue(), emitted, out) if out else ["no library result"]
            if errors:
                result.fail(f"cli {case.item.key}", errors)
            if cold_start and cold is None:
                cold = cold_start_seconds(argv, result)
    return result, cold


def cold_start_seconds(argv: list[str], result: PassResult) -> float:
    """Wall time of ``python -m prophecy`` in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "prophecy", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    result.latencies.append(seconds)
    if proc.returncode != 0:
        result.fail("cli cold start", [f"exit code {proc.returncode}"])
    return seconds


def scaled_latencies(result: PassResult) -> dict[str, float]:
    """Each item's mean latency over its runs, each run scaled to the reference speed.

    A run is scaled by REFERENCE_PROBE_S over the mean of the two probes that
    bracket it: the one just before it and the one before the next request.
    """
    runs: dict[str, list[float]] = defaultdict(list)
    for index, (key, latency) in enumerate(result.samples):
        around = result.probes[index:index + 2]
        runs[key].append(latency * REFERENCE_PROBE_S * len(around) / sum(around))
    return {key: statistics.fmean(values) for key, values in runs.items()}


def end_to_end(result: PassResult, setup: list[float], attempted: int, failed: int) -> dict[str, float]:
    """Timing metrics over each pool item's mean run in the loop, at the reference speed."""
    latencies = list(scaled_latencies(result).values())
    return {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(spans, main_requests: set[int], plain: PassResult, traced: PassResult,
              totals: Counter, cold_start: float) -> dict[str, float]:
    """Per-layer figures over the traced run: the traced pass plus the traced CLI cases.

    A ratio whose denominator is 0 (possible only when requests failed) reads 0.
    """
    own = self_times(spans)
    roots = root_of(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    by_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    layers_in_requests = 0.0
    for span, self_s, root in zip(spans, own, roots):
        if span.layer == "bench":
            continue
        by_name[span.name] += span.duration
        by_layer[span.layer] += self_s
        by_request[span.request][span.name] += span.duration
        if span.request in main_requests and spans[root].name == "bench.request":
            layers_in_requests += self_s

    metrics = {name: by_name[span] for name, span in BUSY.items()}
    metrics.update({name: totals[name] for name in COUNTERS})
    metrics.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})

    paired = [r for r in by_request.values() if "engine.analyze_concrete" in r and "core_lang.run_trace" in r]
    build = ("einsum.build", "nn.build")
    compile_s = [sum(r[n] for n in build) + r["second_stage.emit_c"]
                 for r in by_request.values() if "second_stage.emit_c" in r]
    exec_s = [r["interp.interpret_program"] for r in by_request.values() if "interp.interpret_program" in r]
    untraced, traced_s = sum(plain.latencies), sum(traced.latencies)
    metrics.update({
        "core_lang.step_us": 1e6 * share(by_name["core_lang.run_trace"], totals["core_lang.trace_steps"]),
        "engine.rerun_cost_ratio": share(sum(r["engine.analyze_concrete"] for r in paired),
                                         sum(r["core_lang.run_trace"] for r in paired)),
        "engine.oracle_cost_ratio": share(by_name["engine.analyze_concrete"] + by_name["engine.analyze_all_paths"],
                                          by_name["engine.oracle"]),
        "staging.us_per_run": 1e6 * share(sum(by_name[n] for n in build), totals["staging.runs"]),
        "interp.ns_per_madd": 1e9 * share(by_name["interp.interpret_program"], totals["interp.madds"]),
        "cli.cold_start_s": cold_start,
        "compile_p50_s": statistics.median(compile_s or [0.0]),
        "exec_p50_s": statistics.median(exec_s or [0.0]),
        "trace.requests": len(traced.latencies),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced_s,
        "trace.layers_self_s": layers_in_requests,
        "trace.overhead_s": traced_s - untraced,
        "trace.overhead_ratio": share(traced_s - untraced, untraced),
    })
    return metrics


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def emit(metrics: dict[str, float], spec: list[dict], correct: bool, attempted: int, failed: int) -> None:
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))


def load_library() -> int | None:
    """Put the checkout's ``src/`` first on the path; refuse any other ``prophecy``."""
    package = SRC / "prophecy"
    if not (package / "__init__.py").is_file():
        print(f"error: no prophecy sources at {package}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prophecy

    if Path(prophecy.__file__).resolve().parent != package.resolve():
        print(f"error: imported prophecy from {prophecy.__file__}, not {package}", file=sys.stderr)
        return 2
    return None


def tally(passes: list[PassResult]) -> tuple[int, int]:
    return sum(p.attempted for p in passes), sum(p.failed for p in passes)


def measure_end_to_end(args: argparse.Namespace, workload, workloads: dict):
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    pool = workload.pool(args.seed)
    loop = timed_loop(workload, pool, args.seconds)
    cli, _ = run_cli(args.seed, workloads, None, cold_start=False)
    passes = [loop, cli]
    probe_mean = statistics.fmean(loop.probes)
    print(f"# mean speed probe {probe_mean * 1e6:.1f} us (reference {REFERENCE_PROBE_S * 1e6:.1f} us); "
          f"unscaled requests_per_s {len(loop.latencies) / sum(loop.latencies):.6g}")
    return end_to_end(loop, setup, *tally(passes)), passes, len(pool)


def measure_per_layer(args: argparse.Namespace, workload, workloads: dict):
    pool = workload.pool(args.seed)
    tracer = Tracer()
    plain, traced = paired_passes(workload, pool, tracer)
    main_requests = set(range(tracer.request + 1))
    cli, cold = run_cli(args.seed, workloads, tracer, cold_start=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for key in sorted(set(plain.counters) | set(traced.counters)):
        if plain.counters.get(key) != traced.counters.get(key):
            traced.fail(key, ["work counters differ between the untraced and the traced pass"])
    metrics = per_layer(tracer.finished(), main_requests, plain, traced, traced.totals + cli.totals, cold)
    return metrics, [plain, traced, cli], len(pool)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refused = load_library()
    if refused is not None:
        return refused
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.pool(args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics, passes, pool_size = measure(args, workload, WORKLOADS)

    attempted, failed = tally(passes)
    for error in [e for p in passes for e in p.errors][:MAX_ERRORS_SHOWN]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} requests attempted "
          f"({passes[0].attempted} in the measured pass over {pool_size} pool items), {failed} failed; "
          f"work counters sha256 {digest(passes[0].counters)}")
    emit(metrics, spec["per_layer" if args.trace else "end_to_end"], failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
