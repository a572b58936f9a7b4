"""Command-line front door.

Two subcommands:

* ``analyze`` — run the rerun-based live-variable engine on a core-language
  program file (concrete single-trace mode or all-paths mode), optionally
  cross-checking against the classical worklist oracle and the
  preservation/progress checkers.
* ``stage`` — build one of the staged DSL benchmarks, emit its C-like code,
  report rerun statistics, execute it with the reference interpreter on
  seeded random inputs, and compare data-movement strategies.

Exit codes: 0 success, 1 a check or assertion failed (or the analyzed
program misbehaved), 2 usage or parse errors, 141 (as for SIGPIPE) when the
reader closed stdout early.  All output is deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from typing import Any, Callable

import numpy as np

from .core_lang import CoreLangError, is_variable_name, parse_program
from .engine import (
    AnalysisError,
    analyze_all_paths_with_stats,
    analyze_concrete,
    live_variables_oracle,
    reachable_labels,
)
from .extended import CheckReport, check_preservation, check_progress
from .einsum import (
    DEFAULT_MAX_BID,
    DEFAULT_MAX_TID,
    STRATEGIES,
    EinsumError,
    build_matmul_benchmark,
    build_matvec_benchmark,
    movement_summary,
)
from .interp import InterpError, interpret_program
from .nn import NnError, build_conv_relu_benchmark
from .second_stage import emit_c
from .staging import StageStats, StagingError

_STRATEGY_FLAGS = {strategy.replace("_", "-"): strategy for strategy in STRATEGIES}
_DECIMAL = re.compile(r"[ \t]*([+-]?[0-9]+)[ \t]*")


def decimal_int(text: str) -> int:
    """Read an optional sign and ASCII digits, with blanks around them and nothing else.

    ``int`` alone also reads underscores (``1_0``) and digits of other
    scripts (``١٢``), which the program parser's literals do not.
    """
    if not (match := _DECIMAL.fullmatch(text)):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    try:
        return int(match[1])
    except ValueError:  # more digits than int converts
        raise ValueError(f"too many digits for an integer: {len(match[1])}") from None


def positive_int(text: str) -> int:
    value = decimal_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = decimal_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _parse_bindings(pairs: list[str] | None) -> dict[str, int]:
    state: dict[str, int] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not is_variable_name(name):
            raise ValueError(f"--init expects name=value with a variable name, got {pair!r}")
        try:
            number = decimal_int(value)
        except ValueError as exc:
            raise ValueError(f"--init value of {name}: {exc}") from None
        if not -(1 << 63) <= number < 1 << 63:
            raise ValueError(f"--init value of {name} is outside the 64-bit range: {value.strip()}")
        if name in state:
            raise ValueError(f"--init {name} given more than once")
        state[name] = number
    return state


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.strict_paper and args.mode != "concrete":
        print("error: --strict-paper applies to --mode concrete only", file=sys.stderr)
        return 2
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
        program = parse_program(text)
        initial = _parse_bindings(args.init)
    except UnicodeDecodeError as exc:  # a ValueError too
        print(f"error: {args.program} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except CoreLangError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.mode == "concrete":
            results, stats = analyze_concrete(
                program, initial, args.max_steps, strict_paper=args.strict_paper
            )
        else:
            results, stats = analyze_all_paths_with_stats(program)
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1

    report: dict[str, Any] = {
        "mode": args.mode,
        "strict_paper": args.strict_paper,
        "runs": stats.runs,
        "mispredictions": stats.mispredictions,
        "constraint_repairs": stats.constraint_repairs,
        "beta": {label: sorted(results[label]) for label in program.labels},
        "oracle_match": None,
        "preservation": None,
        "progress": None,
    }

    failed: list[CheckReport] = []  # the checks that did not pass, each with its violation
    if args.check:
        oracle = live_variables_oracle(program)
        if args.mode == "all-paths":
            reachable = reachable_labels(program)
            report["oracle_match"] = all(results[l] == oracle[l] for l in reachable)
        else:
            # a single trace constrains no more than all paths do
            report["oracle_match"] = all(results[l] <= oracle[l] for l in program.labels)
        for check in (check_preservation(program, results, initial, args.max_steps),
                      check_progress(program, results, initial, args.max_steps)):
            report[check.check] = check.passed
            if not check.passed:
                report[f"{check.check}_violation"] = check.violation.to_record()
                failed.append(check)

    _print_analysis_report(report, args.format, failed)
    checks = [report["oracle_match"], report["preservation"], report["progress"]]
    return 1 if any(c is False for c in checks) else 0


def _verdict(value: Any) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


def _print_analysis_report(report: dict[str, Any], fmt: str, failed: list[CheckReport]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"mode: {report['mode']}")
    if report["strict_paper"]:
        print("strict-paper: constraint repairs at collection disabled")
    width = max(len(label) for label in report["beta"])
    for label, live in report["beta"].items():
        names = ", ".join(live)
        print(f"  {label:<{width}}  {{{names}}}")
    print(f"runs: {report['runs']}")
    print(f"mispredictions: {report['mispredictions']}")
    print(f"constraint_repairs: {report['constraint_repairs']}")
    print(f"oracle_match: {_verdict(report['oracle_match'])}")
    print(f"preservation: {_verdict(report['preservation'])}")
    print(f"progress: {_verdict(report['progress'])}")
    for check in failed:
        print(f"  {check.check}: {check.violation.describe()}")


# --------------------------------------------------------------------------
# stage
# --------------------------------------------------------------------------


def _checksum(array: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(array, dtype=np.float32).tobytes()).hexdigest()[:16]


def _build_benchmark(args: argparse.Namespace, strategy: str):
    if args.dsl == "einsum-matmul":
        return build_matmul_benchmark(
            args.m, args.n, args.o, strategy, max_bid=args.max_bid, max_tid=args.max_tid
        )
    if args.dsl == "einsum-matvec":
        return build_matvec_benchmark(
            args.m, args.n, strategy, max_bid=args.max_bid, max_tid=args.max_tid
        )
    return build_conv_relu_benchmark(args.size, args.filter_size)


def _benchmark_inputs(args: argparse.Namespace, rng: np.random.Generator) -> list[dict]:
    if args.dsl.startswith("einsum"):
        cols = args.o if args.dsl == "einsum-matmul" else 1  # matvec is matmul with one column
        x = rng.random(args.m * args.n, dtype=np.float32)
        y = rng.random(args.n * cols, dtype=np.float32)
        return [{"arg0": x, "arg1": y, "arg2": np.zeros(args.m * cols, dtype=np.float32)}]
    data = rng.standard_normal(args.size, dtype=np.float32) * 4
    weight = rng.standard_normal(args.filter_size, dtype=np.float32)
    base = {"arg0": data, "arg1": weight}
    return [
        {**base, "arg2": flag, "arg3": np.zeros(args.size), "arg4": np.zeros(args.size)}
        for flag in (1, 0)
    ]


def _print_stage_stats(args: argparse.Namespace, program, stats: StageStats) -> None:
    print(f"dsl: {args.dsl}")
    if args.dsl.startswith("einsum"):
        print(f"strategy: {program.meta['strategy']}")
    print(f"runs: {stats.runs}")
    print(f"merges: {stats.merges}")
    print(f"derivation: runs = merges + 1 = {stats.merges} + 1 = {stats.merges + 1}")
    for event in stats.merge_log:
        print(f"  run {event.run}: {event.name} {event.old_value} -> {event.new_value}")
    if args.dsl.startswith("einsum"):
        moves = movement_summary(program)
        print(f"device_allocations: {sorted(moves.device_allocations)}")
        print(f"copied_to_device: {sorted(moves.copied_to_device)}")
        print(f"copied_to_host: {sorted(moves.copied_to_host)}")


def cmd_stage(args: argparse.Namespace) -> int:
    einsum = args.dsl.startswith("einsum")
    for flag, given in (("--strategy", args.strategy is not None),
                        ("--diff-strategies", args.diff_strategies)):
        if given and not einsum:
            print(f"error: {flag} applies to einsum DSLs only", file=sys.stderr)
            return 2
    strategy = _STRATEGY_FLAGS[args.strategy or "prophecy"]

    try:
        program, stats = _build_benchmark(args, strategy)
    except (EinsumError, NnError, StagingError) as exc:
        print(f"staging error: {exc}", file=sys.stderr)
        return 1
    emitted = emit_c(program)
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(emitted)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"emitted: {args.emit}")
    if args.stats:
        _print_stage_stats(args, program, stats)
    if not (args.emit or args.stats or args.run_interp or args.diff_strategies):
        print(emitted, end="")

    failed = False
    try:
        if args.run_interp:
            rng = np.random.default_rng(args.seed)
            for case, inputs in enumerate(_benchmark_inputs(args, rng)):
                outputs = interpret_program(program, inputs)
                for name in sorted(outputs):
                    if isinstance(outputs[name], np.ndarray):
                        print(f"checksum[case {case}][{name}]: {_checksum(outputs[name])}")

        if args.diff_strategies:
            rng = np.random.default_rng(args.seed)
            input_sets = _benchmark_inputs(args, rng)
            baselines: list[dict] | None = None
            for flag_name, strategy_name in _STRATEGY_FLAGS.items():
                variant, _ = _build_benchmark(args, strategy_name)
                outputs = [interpret_program(variant, inputs) for inputs in input_sets]
                if baselines is None:
                    baselines = outputs
                else:
                    for base, got in zip(baselines, outputs):
                        for name in base:
                            if not np.array_equal(base[name], got[name]):  # arrays and scalars
                                print(f"diff-strategies: FAIL ({flag_name} differs at {name})")
                                failed = True
            if not failed:
                print("diff-strategies: pass (outputs bit-identical across strategies)")
    except InterpError as exc:
        print(f"interpreter error: {exc}", file=sys.stderr)
        return 1

    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prophecy",
        description="Prophecy-driven staged code generation and live-variable analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a core-language program file")
    analyze.add_argument("program", help="path to the program text")
    analyze.add_argument("--mode", choices=["concrete", "all-paths"], default="concrete")
    analyze.add_argument(
        "--init", action="append", metavar="NAME=INT", help="seed an initial state binding"
    )
    analyze.add_argument("--max-steps", type=positive_int, default=10_000)
    analyze.add_argument(
        "--check",
        action="store_true",
        help="compare against the dataflow oracle and run preservation/progress",
    )
    analyze.add_argument(
        "--strict-paper",
        action="store_true",
        help="disable constraint repair at collection time (literal pseudocode)",
    )
    analyze.add_argument("--format", choices=["text", "json"], default="text")
    analyze.set_defaults(func=cmd_analyze)

    stage = sub.add_parser("stage", help="build a staged DSL benchmark")
    stage.add_argument(
        "--dsl",
        required=True,
        choices=["einsum-matmul", "einsum-matvec", "nn-conv-relu"],
    )
    stage.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS), default=None)
    stage.add_argument("--m", type=positive_int, default=8)
    stage.add_argument("--n", type=positive_int, default=8)
    stage.add_argument("--o", type=positive_int, default=8)
    stage.add_argument("--size", type=positive_int, default=64)
    stage.add_argument("--filter-size", type=positive_int, default=9)
    stage.add_argument("--max-bid", type=positive_int, default=DEFAULT_MAX_BID)
    stage.add_argument("--max-tid", type=positive_int, default=DEFAULT_MAX_TID)
    stage.add_argument("--emit", metavar="PATH", help="write the C-like code here")
    stage.add_argument("--stats", action="store_true", help="print rerun statistics")
    stage.add_argument(
        "--run-interp",
        action="store_true",
        help="interpret on seeded random inputs and print output checksums",
    )
    stage.add_argument(
        "--diff-strategies",
        action="store_true",
        help="assert bit-identical interpreted outputs across all strategies",
    )
    stage.add_argument("--seed", type=non_negative_int, default=0)
    stage.set_defaults(func=cmd_stage)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
