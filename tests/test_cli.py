import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from prophecy import cli
from prophecy.cli import build_parser, cmd_stage, main

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


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def loop_prog(tmp_path):
    path = tmp_path / "loop.prog"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture()
def branch_prog(tmp_path):
    path = tmp_path / "branch.prog"
    path.write_text(BRANCH)
    return str(path)


class TestAnalyze:
    def test_concrete_check_passes(self, loop_prog):
        code, out, _ = run_cli("analyze", loop_prog, "--mode", "concrete", "--check")
        assert code == 0
        assert "runs: 4" in out
        assert "progress: pass" in out

    def test_strict_paper_progress_violation(self, loop_prog):
        code, out, _ = run_cli(
            "analyze", loop_prog, "--mode", "concrete", "--strict-paper", "--check"
        )
        assert code == 1
        assert "progress: FAIL" in out
        assert "l3 -> l1" in out

    def test_strict_paper_is_concrete_only(self, loop_prog):
        # all-paths mode has no strict option: it would report repairs said to be disabled
        code, out, err = run_cli("analyze", loop_prog, "--mode", "all-paths", "--strict-paper")
        assert code == 2
        assert out == ""
        assert err == "error: --strict-paper applies to --mode concrete only\n"

    def test_all_paths_matches_oracle(self, branch_prog):
        # without --init the execution is stuck at l0 on x: the results match
        # the oracle, but progress cannot follow a stuck execution
        code, out, _ = run_cli("analyze", branch_prog, "--mode", "all-paths", "--check")
        assert code == 1
        assert "oracle_match: pass" in out
        assert "progress: FAIL" in out
        assert "stuck at l0" in out

    def test_all_paths_check_passes_with_init(self, branch_prog):
        code, out, _ = run_cli(
            "analyze", branch_prog, "--mode", "all-paths", "--check",
            "--init", "x=1", "--init", "y=2", "--init", "w=3",
        )
        assert code == 0
        assert "oracle_match: pass" in out
        assert "progress: pass" in out

    def test_json_format_round_trips(self, loop_prog):
        code, out, _ = run_cli(
            "analyze", loop_prog, "--mode", "concrete", "--check", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["beta"]["l1"] == ["x"]
        assert record["runs"] == 4
        assert record["oracle_match"] is True
        assert record["preservation"] is True and record["progress"] is True

    def test_text_and_json_reports_agree(self, loop_prog):
        _, text, _ = run_cli("analyze", loop_prog, "--check")
        _, raw, _ = run_cli("analyze", loop_prog, "--check", "--format", "json")
        record = json.loads(raw)
        assert f"runs: {record['runs']}" in text
        assert f"mispredictions: {record['mispredictions']}" in text
        for label, live in record["beta"].items():
            assert f"{label}" in text and "{" + ", ".join(live) + "}" in text
        assert ("oracle_match: pass" in text) == (record["oracle_match"] is True)

    @pytest.mark.parametrize("mode, analysis", [
        ("concrete", "analyze_concrete"),
        ("all-paths", "analyze_all_paths_with_stats"),
    ])
    def test_results_beyond_the_oracle_fail_the_check(self, loop_prog, monkeypatch, mode, analysis):
        analyze = getattr(cli, analysis)

        def with_x_at_halt(program, *args, **kwargs):
            results, stats = analyze(program, *args, **kwargs)
            return {**results, "l4": results["l4"] | {"x"}}, stats

        monkeypatch.setattr(cli, analysis, with_x_at_halt)
        code, out, _ = run_cli("analyze", loop_prog, "--mode", mode, "--check", "--format", "json")
        assert json.loads(out)["oracle_match"] is False
        assert code == 1

    def test_init_seeds_state(self, tmp_path):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, out, _ = run_cli("analyze", str(path), "--init", "x=5", "--check")
        assert code == 0
        code, _, err = run_cli("analyze", str(path), "--check")
        assert code == 1  # stuck without the seed
        assert "stuck" in err

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.prog"
        path.write_text("l0: garbage !!\nl1: done")
        code, _, err = run_cli("analyze", str(path))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exit_2(self):
        code, _, err = run_cli("analyze", "/nonexistent/x.prog")
        assert code == 2

    def test_usage_error_exit_2(self, loop_prog):
        code, _, _ = run_cli("analyze", loop_prog, "--mode", "sideways")
        assert code == 2

    def test_nonpositive_max_steps_exit_2(self, loop_prog):
        code, _, err = run_cli("analyze", loop_prog, "--check", "--max-steps", "0")
        assert code == 2
        assert "--max-steps" in err

    def test_truncated_check_exit_1(self, tmp_path):
        path = tmp_path / "spin.prog"
        path.write_text("l0: x := 1\nl1: goto l1\nl2: done")
        code, out, _ = run_cli(
            "analyze", str(path), "--mode", "all-paths", "--check", "--format", "json"
        )
        assert code == 1
        record = json.loads(out)
        assert record["preservation"] is False and record["progress"] is False
        assert record["progress_violation"]["kind"] == "truncated"
        assert record["progress_violation"]["label"] == "l1"


    def test_non_utf8_file_exit_2(self, tmp_path):
        path = tmp_path / "latin1.prog"
        path.write_bytes(b"l0: x := 1\xff\nl1: halt\nl2: done\n")
        code, _, err = run_cli("analyze", str(path))
        assert code == 2
        assert err.startswith("error: ") and "UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("binding", [" =3", "=3", "1x=3", "if=3", "done=3", "x-y=3", "x"])
    def test_init_name_must_be_a_variable_exit_2(self, tmp_path, binding):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, out, err = run_cli("analyze", str(path), "--init", binding)
        assert code == 2
        assert "--init" in err and out == ""

    @pytest.mark.parametrize(
        "value", ["99999999999999999999999", str(2**63), str(-(2**63) - 1)]
    )
    def test_init_value_outside_64_bits_exit_2(self, tmp_path, value):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, out, err = run_cli("analyze", str(path), "--init", f"x={value}", "--check")
        assert code == 2
        assert "64-bit" in err and out == ""

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
    def test_init_accepts_64_bit_extremes(self, tmp_path, value):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, _, _ = run_cli("analyze", str(path), "--init", f" x = {value}", "--check")
        assert code == 0

    @pytest.mark.parametrize("value", ["1_0", "١٢", "12.0", "0x10", "", "+", "1 2", "\u00a012"])
    def test_init_value_must_be_ascii_digits_exit_2(self, tmp_path, value):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, out, err = run_cli("analyze", str(path), "--init", f"x={value}", "--check")
        assert code == 2
        assert "--init" in err and out == ""

    def test_init_value_takes_sign_and_blanks(self, tmp_path):
        path = tmp_path / "copy.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        for value in ("+7", "\t-7 ", "007"):
            code, out, _ = run_cli("analyze", str(path), "--init", f"x={value}", "--format", "json")
            assert code == 0 and json.loads(out)["beta"]["l0"] == ["x"]
        code, _, _ = run_cli("analyze", str(path), "--init", "x=7", "--max-steps", " +2 ")
        assert code == 0

    def test_repeated_init_exit_2(self, tmp_path):
        path = tmp_path / "reads.prog"
        path.write_text("l0: y := x\nl1: halt\nl2: done")
        code, out, err = run_cli("analyze", str(path), "--init", "x=1", "--init", "x=2", "--check")
        assert code == 2
        assert err == "error: --init x given more than once\n" and out == ""

    def test_closed_stdout_exits_quietly(self, loop_prog):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        child = subprocess.Popen(
            [sys.executable, "-m", "prophecy", "analyze", loop_prog, "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()  # no reader is left before the child writes
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == ""

    def test_integer_of_too_many_digits_exit_2(self, loop_prog):
        digits = "9" * 5000  # more than int converts
        code, out, err = run_cli("analyze", loop_prog, "--init", f"x={digits}")
        assert code == 2
        assert "--init value of x: too many digits" in err and out == ""
        code, out, err = run_cli("analyze", loop_prog, "--max-steps", digits)
        assert code == 2
        assert "--max-steps" in err and out == ""

    @pytest.mark.parametrize("value", ["1_0", "١٢"])
    def test_max_steps_must_be_ascii_digits_exit_2(self, loop_prog, value):
        code, out, err = run_cli("analyze", loop_prog, "--max-steps", value)
        assert code == 2
        assert "--max-steps" in err and out == ""

class TestStage:
    def test_emits_code_to_stdout_by_default(self):
        code, out, _ = run_cli(
            "stage", "--dsl", "einsum-matmul", "--m", "2", "--n", "2", "--o", "2",
            "--max-bid", "2", "--max-tid", "2",
        )
        assert code == 0
        assert out.startswith('#include "runtime.h"')
        assert "void matmul(" in out

    def test_emit_writes_file(self, tmp_path):
        target = tmp_path / "out.c"
        code, out, _ = run_cli(
            "stage", "--dsl", "nn-conv-relu", "--size", "8", "--filter-size", "3",
            "--emit", str(target),
        )
        assert code == 0
        assert target.read_text().startswith('#include "runtime.h"')

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_emit_path_exit_2(self, tmp_path, where):
        target = tmp_path / "missing" / "x.c" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(
            "stage", "--dsl", "einsum-matvec", "--m", "2", "--n", "2", "--emit", str(target),
        )
        assert code == 2
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err and out == ""

    def test_stats_report_states_count_and_derivation(self):
        code, out, _ = run_cli(
            "stage", "--dsl", "einsum-matmul", "--strategy", "prophecy", "--stats",
            "--m", "4", "--n", "4", "--o", "4", "--max-bid", "2", "--max-tid", "4",
        )
        assert code == 0
        assert "runs: 6" in out
        assert "derivation: runs = merges + 1 = 5 + 1 = 6" in out
        assert "needs_gpu[z] F -> T" in out
        assert "copied_to_device: ['x', 'y']" in out
        assert "copied_to_host: ['z']" in out

    def test_nn_stats_reports_four_runs(self):
        code, out, _ = run_cli(
            "stage", "--dsl", "nn-conv-relu", "--size", "8", "--filter-size", "3", "--stats"
        )
        assert code == 0
        assert "runs: 4" in out

    def test_diff_strategies_pass(self):
        code, out, _ = run_cli(
            "stage", "--dsl", "einsum-matmul", "--diff-strategies",
            "--m", "4", "--n", "3", "--o", "5", "--max-bid", "2", "--max-tid", "4",
        )
        assert code == 0
        assert "diff-strategies: pass" in out

    def test_strategy_rejected_for_nn(self):
        code, _, err = run_cli(
            "stage", "--dsl", "nn-conv-relu", "--strategy", "prophecy"
        )
        assert code == 2
        assert "einsum" in err

    def test_diff_strategies_rejected_for_nn(self):
        code, _, err = run_cli("stage", "--dsl", "nn-conv-relu", "--diff-strategies")
        assert code == 2

    def test_run_interp_deterministic_for_fixed_seed(self):
        args = (
            "stage", "--dsl", "einsum-matvec", "--strategy", "prophecy",
            "--m", "4", "--n", "4", "--max-bid", "2", "--max-tid", "4",
            "--run-interp", "--seed", "3",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0
        assert "checksum[" in first[1]

    def test_dsl_error_exit_1(self):
        code, _, err = run_cli(
            "stage", "--dsl", "nn-conv-relu", "--size", "2", "--filter-size", "9"
        )
        assert code == 1
        assert "staging error" in err

    def test_byte_count_outside_c_int_is_a_staging_error(self):
        # 2**29 floats take 2**31 bytes, one more than C's int holds
        code, out, err = run_cli("stage", "--dsl", "nn-conv-relu", "--size", str(2**29),
                                 "--filter-size", "3")
        assert (code, out, err) == (1, "", "staging error: integer literal is outside C's int\n")
        code, out, _ = run_cli("stage", "--dsl", "nn-conv-relu", "--size", str(2**29 - 1),
                               "--filter-size", "3")
        assert code == 0 and "runtime::malloc(2147483644);" in out

    @pytest.mark.parametrize(
        "flag", ["--m", "--n", "--o", "--size", "--filter-size", "--max-bid", "--max-tid"]
    )
    def test_nonpositive_size_rejected_exit_2(self, flag):
        code, _, err = run_cli("stage", "--dsl", "einsum-matmul", flag, "0")
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize(
        "flag",
        ["--m", "--n", "--o", "--size", "--filter-size", "--max-bid", "--max-tid", "--seed"],
    )
    @pytest.mark.parametrize("value", ["1_0", "١٢"])
    def test_integer_flags_take_only_ascii_digits_exit_2(self, flag, value):
        code, out, err = run_cli("stage", "--dsl", "einsum-matmul", "--stats", flag, value)
        assert code == 2
        assert flag in err and out == ""

    @pytest.mark.parametrize("flag", ["--run-interp", "--diff-strategies"])
    def test_negative_seed_rejected_exit_2(self, flag):
        code, _, err = run_cli("stage", "--dsl", "einsum-matmul", flag, "--seed", "-1")
        assert code == 2
        assert "--seed" in err
        assert "Traceback" not in err

    def test_interp_error_exit_1(self, monkeypatch):
        # an output buffer one element long: the kernel stores past its end
        inputs = cli._benchmark_inputs
        short = lambda args, rng: [{**case, "arg2": np.zeros(1)} for case in inputs(args, rng)]
        monkeypatch.setattr(cli, "_benchmark_inputs", short)
        args = build_parser().parse_args(["stage", "--dsl", "einsum-matmul", "--run-interp"])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cmd_stage(args)
        assert code == 1
        assert "interpreter error" in err.getvalue()
        assert "out of bounds for arg2 of size 1" in err.getvalue()

    def test_zero_grid_is_a_staging_error(self):
        # a grid with no blocks would record kernel loops that never advance
        args = build_parser().parse_args(["stage", "--dsl", "einsum-matmul", "--run-interp"])
        args.max_bid = 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cmd_stage(args)
        assert code == 1
        assert err.getvalue() == "staging error: max_bid must be a positive int, got 0\n"

    def test_seed_changes_checksums(self):
        base = (
            "stage", "--dsl", "einsum-matvec", "--strategy", "prophecy",
            "--m", "4", "--n", "4", "--max-bid", "2", "--max-tid", "4", "--run-interp",
        )
        _, out_a, _ = run_cli(*base, "--seed", "0")
        _, out_b, _ = run_cli(*base, "--seed", "1")
        assert out_a != out_b
