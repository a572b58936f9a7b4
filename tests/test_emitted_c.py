"""The emitted C is C: ``g++ -fsyntax-only`` accepts every pinned program.

Programs are checked against ``tests/data/runtime.h``, a stub of the six
runtime calls, so this covers syntax and types only; nothing is linked or
run.  g++ is also the oracle for what building a program refuses: the C of
a refused recording (``emit_recorded``) is C that g++ refuses.  The check
skips only when no ``g++`` is on PATH.
"""

import os
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from prophecy.einsum import STRATEGIES
from prophecy.second_stage import RUNTIME_HEADER, emit_c
from prophecy.staging import ProphecyStore, StageContext
from test_interp import C_COMPARISONS, REFUSED, _comparison_program, _refused_recording
from test_interp_differential import random_recording
from test_nn import FUSION_CASES, build_session, random_session
from test_pins import STAGED, _einsum_corpus, _einsum_outcome

pytestmark = pytest.mark.skipif(shutil.which("g++") is None, reason="no g++ on PATH")

RUNTIME_DIR = Path(__file__).parent / "data"


def syntax_check(sources: dict[str, str]) -> subprocess.CompletedProcess:
    """One translation unit; each program in its own namespace, its errors under its name."""
    unit = [RUNTIME_HEADER]
    for k, (name, text) in enumerate(sources.items()):
        assert text.startswith(RUNTIME_HEADER + "\n")
        body = text.removeprefix(RUNTIME_HEADER + "\n")
        unit.append(f'namespace case{k} {{\n#line 1 "{name}"\n{body}}}')
    return subprocess.run(
        ["g++", "-fsyntax-only", "-I", str(RUNTIME_DIR), "-x", "c++", "-"],
        input="\n".join(unit), capture_output=True, text=True, timeout=120,
        env={**os.environ, "LC_ALL": "C"},  # plain quotes in messages
    )


def emit_recorded(ctx: StageContext) -> str:
    """The C of what ``ctx`` recorded, whether or not the program builds: ``emit_c`` reads only
    a program's name, parameters and body."""
    return emit_c(SimpleNamespace(name=ctx._name, params=tuple(ctx._params), body=ctx._root))


def test_pinned_programs_compile():
    sources = {case: emit_c(build()[0]) for case, (build, _, _) in sorted(STAGED.items())}
    for name, case in _einsum_corpus().items():
        for strategy in STRATEGIES:
            outcome = _einsum_outcome(case, strategy)
            if outcome[0] == "ok":
                sources[f"einsum-{name}-{strategy}"] = outcome[1]
    sessions = {f"fusion-{case}": ops for case, ops in FUSION_CASES.items()}
    sessions.update((f"session-{seed}", random_session(seed)) for seed in range(20))
    for name, ops in sessions.items():
        for fusion in (True, False):
            sources[f"{name}-{'fused' if fusion else 'unfused'}"] = emit_c(
                build_session(ops, fusion=fusion)[0])
    assert len(sources) > len(STAGED)
    result = syntax_check(sources)
    assert result.returncode == 0, result.stderr


def test_loop_variable_after_its_loop_compiles_nowhere():
    ctx = StageContext(ProphecyStore(), run_index=1, name="after_loop")
    buf = ctx.parameter("float*")
    held = []
    ctx.for_loop(0, 4, 1, held.append)
    ctx.assign(buf[0], held[0])
    result = syntax_check({"after_loop": emit_recorded(ctx)})
    assert result.returncode != 0
    assert "'var0' was not declared in this scope" in result.stderr
    with pytest.raises(ValueError, match="^loop variable var0 is used outside its loop$"):
        ctx.finish()


def test_branch_declaration_after_its_branch_compiles_nowhere():
    ctx = StageContext(ProphecyStore(), run_index=1, name="after_branch")
    buf = ctx.parameter("float*")
    held = []
    ctx.if_else(buf[0] < 1.0, lambda: held.append(ctx.declare("float", 2.0)))
    ctx.assign(buf[0], held[0])
    result = syntax_check({"after_branch": emit_recorded(ctx)})
    assert result.returncode != 0
    assert "'var0' was not declared in this scope" in result.stderr
    with pytest.raises(ValueError, match="^variable var0 is used outside its block$"):
        ctx.finish()


def test_refused_programs_compile_nowhere_but_pointer_arithmetic():
    # building refuses each; g++ accepts (arg0 + 1)[0] and runtime::malloc(16)[0], which
    # building refuses as unsupported, stricter than C
    result = syntax_check({case: emit_recorded(_refused_recording(REFUSED[case][0]))
                           for case in REFUSED})
    errors = [line for line in result.stderr.splitlines() if ": error: " in line]
    assert {line.split(":")[0] for line in errors} == set(REFUSED) - {
        "pointer arithmetic", "allocation indexed"}
    for case, error in [
        ("pointer in a float", "cannot convert 'float*' to 'float' in initialization"),
        ("pointer stored as an element", "cannot convert 'float*' to 'float' in assignment"),
        ("remainder of a float variable", "invalid operands of types 'float' and 'int' to binary 'operator%'"),
        ("int in a pointer", "invalid conversion from 'int' to 'float*' [-fpermissive]"),
        ("float variable as an index", "invalid types 'float*[float]' for array subscript"),
    ]:
        assert any(line.startswith(f"{case}:") and line.endswith(error) for line in errors), case


def test_comparisons_compile_as_ints():
    # a bool promotes to int, as an index or an operand; test_interp pins what each program gives
    result = syntax_check({case: emit_c(_comparison_program(case)) for case in C_COMPARISONS})
    assert result.returncode == 0, result.stderr


def test_generated_programs_compile_exactly_where_the_program_builds():
    # building refuses a program, and g++ refuses the C of the same recordings
    sources, refused = {}, set()
    for mode in ("general", "kernels"):
        for seed in range(300):
            ctx, _ = random_recording(seed, kernels=mode == "kernels")
            name = f"{mode}-{seed}"
            sources[name] = emit_recorded(ctx)
            try:
                ctx.finish()
            except ValueError:
                refused.add(name)
    result = syntax_check(sources)
    rejected = {line.split(":")[0] for line in result.stderr.splitlines() if ": error: " in line}
    assert rejected == refused
    assert 0 < len(refused) < len(sources) / 2
