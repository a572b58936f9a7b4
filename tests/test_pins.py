"""Pinned outputs: refactors of the engine, the checkers, the staged runtime, the einsum DSL and the interpreter keep these bytes.

Each digest covers the analysis results together with the rerun statistics
(or both checkers' report records, or the emitted C together with the run
count and merge names, or every interpreted output with its dtype, or an
error's type and message), so a change in any run count, any result set,
any verdict, any emitted byte, any output byte or any error shows as a
digest mismatch.  The staged benchmarks' full merge logs are pinned as
literal lists beside their digests.
"""

import ast
import hashlib
import io
import json
import random
from contextlib import redirect_stdout

import numpy as np
import pytest

from prophecy import interp
from prophecy.cli import main

from prophecy.einsum import (
    EinsumError,
    EinsumSession,
    Index,
    build_matmul_benchmark,
    build_matvec_benchmark,
    einsum_assign,
    movement_summary,
)
from prophecy.engine import analyze_all_paths_with_stats, analyze_concrete, live_variables_oracle
from prophecy.extended import check_preservation, check_progress
from prophecy.interp import interpret_program
from prophecy.nn import build_conv_relu_benchmark
from prophecy.second_stage import emit_c
from prophecy.staging import run_staged
from randprog import VARS, corpus, terminating_sample


def _digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _results(program, results) -> list:
    return [[label, sorted(results[label])] for label in program.labels]


def test_all_paths_pinned_on_corpus():
    records = []
    for program in corpus(random.Random(2026), 150):
        results, stats = analyze_all_paths_with_stats(program)
        counts = [stats.passes, stats.mispredictions, stats.constraint_repairs]
        records.append([_results(program, results), counts])
    assert _digest(records) == "977e1fac128c762ae7341ce9f5475e21532bd8c617eafadf6fa83e12ade385bc"


# Seed 3 draws a program whose back edge needs a constraint repair, so the
# default and strict-paper digests differ.
@pytest.mark.parametrize(
    "strict_paper, expected",
    [
        (False, "ef77ec28e963525726b0d43f2758ce5b924a87c84aa285b6b5e2a538d5fe8323"),
        (True, "d6558db790d90ea00772d5ffa957f5693ebae64a88f1eed01bb80d3d8d28d4e9"),
    ],
)
def test_concrete_pinned_on_terminating_sample(strict_paper, expected):
    records = []
    for program, state in terminating_sample(random.Random(3), 80):
        results, stats = analyze_concrete(program, state, strict_paper=strict_paper)
        counts = [stats.runs, stats.mispredictions, stats.constraint_repairs]
        records.append([_results(program, results), counts])
    assert _digest(records) == expected


# CLI default sizes: m = n = o = 8, size 64, filter 9, a 40 x 512 grid.
STAGED = {
    "matmul-prophecy": (
        lambda: build_matmul_benchmark(8, 8, 8, "prophecy"),
        6,
        "e6f2c5319d4d0299b4f6935101d7344e5fc75e93ce9818ea72dc4e9e8c95dceb",
    ),
    "matmul-copy_all": (
        lambda: build_matmul_benchmark(8, 8, 8, "copy_all"),
        1,
        "9cf15da980620ed639039645d8bde72a0a28cd6e4bba00337b7987fbf1a7ae30",
    ),
    "matmul-unified": (
        lambda: build_matmul_benchmark(8, 8, 8, "unified"),
        1,
        "0e9e33d95daf759bee61cefeb3507b6fac720c516909f945fbac7d3fcbd1d7ea",
    ),
    "matvec-prophecy": (
        lambda: build_matvec_benchmark(8, 8, "prophecy"),
        6,
        "6f7c3cc8c009aa4ca59ccf78195c4657a4c21b1c0fde5a74490ab3343681c020",
    ),
    "matvec-copy_all": (
        lambda: build_matvec_benchmark(8, 8, "copy_all"),
        1,
        "fd0b8802fa0dd234ba46b4b105bda963886163be0842e58e224987e47a753589",
    ),
    "matvec-unified": (
        lambda: build_matvec_benchmark(8, 8, "unified"),
        1,
        "7a0b6ff38494c9ab32687d88bddefcee4f16ce37acf3cac538d5abdb0955a729",
    ),
    "conv-relu": (
        lambda: build_conv_relu_benchmark(64, 9),
        4,
        "3b81024f33c083b7fe1b9906c3c79003df161fe2d4c3ce86be5115859bcf96c3",
    ),
}


@pytest.mark.parametrize("case", sorted(STAGED))
def test_emitted_code_pinned(case):
    build, runs, expected = STAGED[case]
    program, stats = build()
    assert stats.runs == runs
    assert stats.runs == stats.merges + 1
    assert _digest([emit_c(program), stats.runs]) == expected


# Every merge as [run, cell_id, name, repr(old), repr(new), repr(required)].
# The two einsum prophecy builds settle the same five cells in the same order.
_EINSUM_MERGES = [
    [1, 4, "needs_gpu[z]", "'F'", "'T'", "'T'"],
    [2, 0, "needs_gpu[x]", "'F'", "'T'", "'T'"],
    [3, 6, "gpu_read[x]", "'F'", "'T'", "'T'"],
    [4, 2, "needs_gpu[y]", "'F'", "'T'", "'T'"],
    [5, 8, "gpu_read[y]", "'F'", "'T'", "'T'"],
]
MERGE_LOGS = {
    "matmul-prophecy": (STAGED["matmul-prophecy"][0], _EINSUM_MERGES),
    "matmul-copy_all": (STAGED["matmul-copy_all"][0], []),
    "matmul-unified": (STAGED["matmul-unified"][0], []),
    "matvec-prophecy": (STAGED["matvec-prophecy"][0], _EINSUM_MERGES),
    "matvec-copy_all": (STAGED["matvec-copy_all"][0], []),
    "matvec-unified": (STAGED["matvec-unified"][0], []),
    "conv-relu": (
        STAGED["conv-relu"][0],
        [
            [1, 0, "is_next_relu[conv0]", "Unspecified", "T(2.0)", "T(2.0)"],
            [2, 0, "is_next_relu[conv0]", "T(2.0)", "F", "T(4.0)"],
            [3, 1, "is_next_relu[conv1]", "Unspecified", "T(1.56)", "T(1.56)"],
        ],
    ),
    "conv-relu-unfused": (lambda: build_conv_relu_benchmark(64, 9, fusion=False), []),
}


@pytest.mark.parametrize("case", sorted(MERGE_LOGS))
def test_merge_logs_pinned(case):
    build, expected = MERGE_LOGS[case]
    _, stats = build()
    log = [
        [e.run, e.cell_id, e.name, repr(e.old_value), repr(e.new_value), repr(e.required)]
        for e in stats.merge_log
    ]
    assert log == expected


# m, n and o all differ, so a builder or an input draw that swaps two of them shows.
# Each case: runs, the sha256 of the emitted C, and the names of the merged cells.
NON_SQUARE = {
    "matmul-3x5x2-prophecy": (6, "1e97b4bcad1e456951c6a9196c4a9292eb055bd7cb194e3219bf95a54b06ed25"),
    "matmul-3x5x2-copy_all": (1, "eb29d959905a66ed43e5ead30db61412dbbea8d1dd7a435567482cfd14d0c1ee"),
    "matmul-3x5x2-unified": (1, "91e905adb4cbd0a04a031d28d48117bd1a23319ddf3826202dcc15d03fc6b9c9"),
    "matvec-5x3-prophecy": (6, "3e969a4ad914832d7d175e5195f8fe17ef50a4e7bbd957ba472c8aae08df2c8f"),
    "matvec-5x3-copy_all": (1, "7096aa1b5e75d8a8f982c264cf9661e7ccc01a421f1906e232feeb2fdc8ef455"),
    "matvec-5x3-unified": (1, "824d56d71d08e3faeaa523d9ccb4987acde6e7cfa854e522ddf9eb7fac91ff14"),
}


@pytest.mark.parametrize("case", sorted(NON_SQUARE))
def test_non_square_einsum_builds_pinned(case):
    kind, _, strategy = case.split("-")
    if kind == "matmul":
        program, stats = build_matmul_benchmark(3, 5, 2, strategy)
    else:
        program, stats = build_matvec_benchmark(5, 3, strategy)
    runs, expected = NON_SQUARE[case]
    assert stats.runs == runs
    assert hashlib.sha256(emit_c(program).encode()).hexdigest() == expected
    merged = [e.name for e in stats.merge_log]
    assert merged == ([row[2] for row in _EINSUM_MERGES] if strategy == "prophecy" else [])


def _output_record(outputs) -> list:
    record = []
    for name in sorted(outputs):
        value = outputs[name]
        if isinstance(value, np.ndarray):
            record.append([name, str(value.dtype), hashlib.sha256(value.tobytes()).hexdigest()])
        else:
            record.append([name, type(value).__name__, repr(value)])
    return record


def _matrix_inputs(rng, m, n, o):
    return {
        "arg0": rng.random(m * n, dtype=np.float32),
        "arg1": rng.random(n * o, dtype=np.float32),
        "arg2": np.zeros(m * o, dtype=np.float32),
    }


def _vector_inputs(rng, m, n):
    return {
        "arg0": rng.random(m * n, dtype=np.float32),
        "arg1": rng.random(n, dtype=np.float32),
        "arg2": np.zeros(m, dtype=np.float32),
    }


def _conv_inputs(rng, size, filter_size, flag):
    return {
        "arg0": rng.standard_normal(size, dtype=np.float32) * 4,
        "arg1": rng.standard_normal(filter_size, dtype=np.float32),
        "arg2": flag,
        "arg3": np.zeros(size),
        "arg4": np.zeros(size),
    }


# Small shapes, a strided grid smaller than the data and the default 40 x 512
# grid, so grid-stride loops both run and sit idle.
INTERPRETED = {
    **{
        f"matmul-{strategy}-5x3x6-grid2x3": (
            lambda s=strategy: build_matmul_benchmark(5, 3, 6, s, max_bid=2, max_tid=3),
            lambda rng: _matrix_inputs(rng, 5, 3, 6),
        )
        for strategy in ("prophecy", "copy_all", "unified")
    },
    **{
        f"matmul-{strategy}-4x4x4": (
            lambda s=strategy: build_matmul_benchmark(4, 4, 4, s),
            lambda rng: _matrix_inputs(rng, 4, 4, 4),
        )
        for strategy in ("prophecy", "copy_all", "unified")
    },
    **{
        f"matvec-{strategy}-7x5-grid3x2": (
            lambda s=strategy: build_matvec_benchmark(7, 5, s, max_bid=3, max_tid=2),
            lambda rng: _vector_inputs(rng, 7, 5),
        )
        for strategy in ("prophecy", "copy_all", "unified")
    },
    **{
        f"conv-relu-flag{flag}": (
            lambda: build_conv_relu_benchmark(24, 5),
            lambda rng, f=flag: _conv_inputs(rng, 24, 5, f),
        )
        for flag in (1, 0)
    },
}

# The three einsum strategies agree bit for bit, so their digests do too.
INTERPRETED_DIGESTS = {
    "conv-relu-flag0": "dee443d757b462a3ff34cc37c2ee08d653946c2b875ab941d70769ee98980cb5",
    "conv-relu-flag1": "c54420817cfec1fca2d717d9e67dc609fcbfbd937eefd371d55250d0fedfc85d",
    "matmul-copy_all-4x4x4": "c1c3b841d3e060859e60f371e570c7f199d12c3cb5f54899b13c986af07944f2",
    "matmul-copy_all-5x3x6-grid2x3": "d4b3a5b5b3e3964a60247257b61c905b4c422a44e498cc1f5f74135aacc6f99c",
    "matmul-prophecy-4x4x4": "c1c3b841d3e060859e60f371e570c7f199d12c3cb5f54899b13c986af07944f2",
    "matmul-prophecy-5x3x6-grid2x3": "d4b3a5b5b3e3964a60247257b61c905b4c422a44e498cc1f5f74135aacc6f99c",
    "matmul-unified-4x4x4": "c1c3b841d3e060859e60f371e570c7f199d12c3cb5f54899b13c986af07944f2",
    "matmul-unified-5x3x6-grid2x3": "d4b3a5b5b3e3964a60247257b61c905b4c422a44e498cc1f5f74135aacc6f99c",
    "matvec-copy_all-7x5-grid3x2": "553e0709da4f60a262fee4bbe66fd6cacfc4eb3da875f03ffef0adad334a909f",
    "matvec-prophecy-7x5-grid3x2": "553e0709da4f60a262fee4bbe66fd6cacfc4eb3da875f03ffef0adad334a909f",
    "matvec-unified-7x5-grid3x2": "553e0709da4f60a262fee4bbe66fd6cacfc4eb3da875f03ffef0adad334a909f",
}


@pytest.mark.parametrize("case", sorted(INTERPRETED))
def test_interpreted_outputs_pinned(case):
    build, make_inputs = INTERPRETED[case]
    program, _ = build()
    records = []
    for seed in (0, 1):
        inputs = make_inputs(np.random.default_rng(seed))
        records.append(_output_record(interpret_program(program, inputs)))
    assert _digest(records) == INTERPRETED_DIGESTS[case]


# The work of Python's compile in `interpret_program`: the statements and the branch nodes
# (`if`, conditional expression, `and`/`or`, `for`) of the source it prints for each program.
# A change that moves these re-pins them in a commit of its own, as for emitted C.
COMPILED_NODES = {
    "conv-relu-flag0": (32, 10),
    "conv-relu-flag1": (32, 10),
    "matmul-copy_all-4x4x4": (52, 10),
    "matmul-copy_all-5x3x6-grid2x3": (52, 12),
    "matmul-prophecy-4x4x4": (37, 10),
    "matmul-prophecy-5x3x6-grid2x3": (37, 12),
    "matmul-unified-4x4x4": (28, 10),
    "matmul-unified-5x3x6-grid2x3": (28, 12),
    "matvec-copy_all-7x5-grid3x2": (51, 9),
    "matvec-prophecy-7x5-grid3x2": (36, 9),
    "matvec-unified-7x5-grid3x2": (27, 9),
}


def compiled_source(monkeypatch, case) -> str:
    """The source `interpret_program` compiles for `INTERPRETED[case]`."""
    sources = []
    monkeypatch.setattr(interp, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    build, make_inputs = INTERPRETED[case]
    interpret_program(build()[0], make_inputs(np.random.default_rng(0)))
    return sources[0]


@pytest.mark.parametrize("case", sorted(INTERPRETED))
def test_compiled_source_pinned(monkeypatch, case):
    nodes = list(ast.walk(ast.parse(compiled_source(monkeypatch, case))))
    branches = (ast.If, ast.IfExp, ast.BoolOp, ast.For)
    counts = (sum(isinstance(n, ast.stmt) for n in nodes),
              sum(isinstance(n, branches) for n in nodes))
    assert counts == COMPILED_NODES[case]


# `prophecy stage --dsl <dsl> --run-interp --seed 0` at the CLI default sizes.
CLI_CHECKSUMS = {
    "einsum-matmul": [
        "checksum[case 0][arg0]: ffe18a4d6f35bc74",
        "checksum[case 0][arg1]: 162d0103517358b9",
        "checksum[case 0][arg2]: 849c696cb220efd6",
    ],
    "einsum-matvec": [
        "checksum[case 0][arg0]: ffe18a4d6f35bc74",
        "checksum[case 0][arg1]: 66eb929a0df495cf",
        "checksum[case 0][arg2]: 4dbfba1f012cf3bb",
    ],
    "nn-conv-relu": [
        "checksum[case 0][arg0]: f956c4e72eb2e38a",
        "checksum[case 0][arg1]: e093c087df8a24f2",
        "checksum[case 0][arg3]: 842c5b4723e44bcf",
        "checksum[case 0][arg4]: 1f5f03fa87519552",
        "checksum[case 1][arg0]: f956c4e72eb2e38a",
        "checksum[case 1][arg1]: e093c087df8a24f2",
        "checksum[case 1][arg3]: 53f98396da4d0a59",
        "checksum[case 1][arg4]: 1f5f03fa87519552",
    ],
}


@pytest.mark.parametrize("dsl", sorted(CLI_CHECKSUMS))
def test_cli_run_interp_checksums_pinned(dsl):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["stage", "--dsl", dsl, "--run-interp", "--seed", "0"])
    assert code == 0
    assert out.getvalue().splitlines() == CLI_CHECKSUMS[dsl]


# The same at non-square sizes: `--m 3 --n 5 --o 2` for matmul, `--m 5 --n 3` for matvec.
NON_SQUARE_CLI_CHECKSUMS = {
    ("einsum-matmul", "--m", "3", "--n", "5", "--o", "2"): [
        "checksum[case 0][arg0]: 52c2cf0ea80f41dd",
        "checksum[case 0][arg1]: 220b4271d9ba2280",
        "checksum[case 0][arg2]: eb465ea5d7f98a0a",
    ],
    ("einsum-matvec", "--m", "5", "--n", "3"): [
        "checksum[case 0][arg0]: 52c2cf0ea80f41dd",
        "checksum[case 0][arg1]: 3482131f9ea976ef",
        "checksum[case 0][arg2]: a3bf38b264c8a368",
    ],
}


@pytest.mark.parametrize("argv", sorted(NON_SQUARE_CLI_CHECKSUMS), ids=lambda argv: argv[0])
def test_cli_run_interp_checksums_pinned_at_non_square_sizes(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["stage", "--dsl", *argv, "--run-interp", "--seed", "0"])
    assert code == 0
    assert out.getvalue().splitlines() == NON_SQUARE_CLI_CHECKSUMS[argv]


def _checker_tables(program, state, rng) -> list:
    """Computed, oracle, all-empty, and computed with one label's set perturbed."""
    computed, _ = analyze_concrete(program, state)
    perturbed = dict(computed)
    label = rng.choice(program.labels)
    perturbed[label] = computed[label] ^ {rng.choice(VARS)}
    empty = {label: frozenset() for label in program.labels}
    return [computed, live_variables_oracle(program), empty, perturbed]


def _checker_records(program, state, tables) -> list:
    return [
        [check_preservation(program, table, state, budget).to_record(),
         check_progress(program, table, state, budget).to_record()]
        for table in tables
        for budget in (10_000, 0, 3)
    ]


def test_checker_reports_pinned():
    rng = random.Random(5)
    records = []
    for program, state in terminating_sample(random.Random(3), 80):
        records.append(_checker_records(program, state, _checker_tables(program, state, rng)))
    # a dropped initial variable: some of these executions get stuck
    for program, state in terminating_sample(random.Random(4), 12):
        del state[rng.choice(sorted(state))]
        empty = {label: frozenset() for label in program.labels}
        records.append(_checker_records(program, state, [live_variables_oracle(program), empty]))
    assert _digest(records) == "5c56556bdd9c3c299a747c789d2cc14c69bc21be15596cd7a2becdd779854441"


# Einsum statements beyond the two benchmarks, on a 2 x 3 grid, under each
# strategy: every lowering path and every EinsumError the DSL raises.
def _einsum_corpus():
    def mul_assign(s, i, j, k):
        a, c = s.tensor("a", [2, 3]), s.tensor("c", [2])
        a[i, k] = 2.0
        c[i] = 1.0
        c[i] *= a[i, k]

    def index_arithmetic(s, i, j, k):
        b, x, v = s.tensor("b", [2, 3]), s.tensor("x", [3]), s.tensor("v", [3])
        b[i, j] = 4.0 + i + j
        v[i] = 2.0 * x[i]
        v[i] = x[i] * 3 + 1 + (2 * i) * x[i] + i * 2 + (i + 1)
        v[i] = 2 * (x[i] + i) + x[i] * (v[i] + 1)
        v[i] += 1.0 + x[i] + v[i] * (0.5 + x[i] * x[i])
        b[i, j] = 7

    def chained_subscripts(s, i, j, k):
        a, b, c = s.tensor("a", [2, 3]), s.tensor("b", [3, 2]), s.tensor("c", [2, 2])
        a[i][j] = 3.0
        b[i][j] = a[j][i]
        c[i][j] += a[i][k] * b[k][j]
        c[i][j] *= a[i, k] + b[k][j]

    def rank3_flat_index(s, i, j, k):
        t, u = s.tensor("t", [2, 3, 4]), s.tensor("u", [4, 3, 2])
        u[k, j, i] = 1.0 * k
        t[i, j, k] = u[k, j, i] + 1.0
        t[k, i, j] = 0.0  # ranges rebind per statement

    def repeated_index(s, i, j, k):
        d, e, w = s.tensor("d", [3, 3]), s.tensor("e", [3, 4]), s.tensor("w", [3])
        d[i, i] = 1.0
        d[i, i] += e[i, k]
        w[i] = d[i, i] * d[i, i]
        w[j] += d[j, k] * e[k, i]  # k ranges 3 in d and 4 in e

    def external_buffer(s, i, j, k):
        data = s.ctx.parameter("float*")
        a, a_b = s.tensor("a", [4]), s.tensor("a_b", [4], buffer=data)
        a[i] = a_b[i]
        s.run_on_gpu(lambda: a.__setitem__(i, a[i] * a[i]))
        a_b[i] = a[i]

    def gpu(shape, reduce):
        def case(s, i, j, k):
            out = [i, j, k][: len(shape)]
            r = Index("r")
            src = s.tensor("src", list(shape) + [5])
            dst = s.tensor("dst", list(shape))
            src[tuple(out) + (r,)] = 1.5

            def kernel():
                if reduce:
                    dst[tuple(out)] += src[tuple(out) + (r,)] * 2.0
                else:
                    dst[tuple(out)] = 3.0 + out[0]

            s.run_on_gpu(kernel)
        return case

    def two_kernels(s, i, j, k):
        a, b, c = s.tensor("a", [4]), s.tensor("b", [4]), s.tensor("c", [4])
        a[i] = 1.0
        b[i] = 2.0
        s.run_on_gpu(lambda: c.__setitem__(i, a[i] + 0.0))
        s.run_on_gpu(lambda: c.__setitem__(i, b[i] + c[i]))
        a[i] = c[i]

    def kernel_then_host(s, i, j, k):
        m, v, y = s.tensor("m", [3, 4]), s.tensor("v", [4]), s.tensor("y", [3])

        def kernel():
            y[i] += m[i, j] * v[j]
            m[i, j] = y[i] * 0.5

        s.run_on_gpu(kernel)
        v[j] += m[i, j]

    def created_in_kernel(s, i, j, k):
        c = s.tensor("c", [4])

        def kernel():
            t = s.tensor("t", [4])
            c[i] = t[i]

        s.run_on_gpu(kernel)

    def foreign_tensor(s, i, j, k):
        other = EinsumSession(s.ctx, "unified")
        t, c = other.tensor("t", [4]), s.tensor("c", [4])
        s.run_on_gpu(lambda: c.__setitem__(i, t[i]))

    def a23(s):
        return s.tensor("a", [2, 3])

    return {
        "mul_assign": mul_assign,
        "index_arithmetic": index_arithmetic,
        "chained_subscripts": chained_subscripts,
        "rank3_flat_index": rank3_flat_index,
        "repeated_index": repeated_index,
        "external_buffer": external_buffer,
        "two_kernels": two_kernels,
        "kernel_then_host": kernel_then_host,
        **{f"gpu{len(shape)}-{'reduce' if reduce else 'map'}": gpu(shape, reduce)
           for shape in ((7,), (3, 4), (2, 3, 4)) for reduce in (False, True)},
        "err-empty-sizes": lambda s, i, j, k: s.tensor("a", []),
        "err-zero-size": lambda s, i, j, k: s.tensor("a", [0, 3]),
        "err-negative-size": lambda s, i, j, k: s.tensor("a", [-1]),
        "err-duplicate-name": lambda s, i, j, k: [s.tensor("a", [1]), s.tensor("a", [2])],
        "err-unknown-strategy": lambda s, i, j, k: EinsumSession(s.ctx, "pinned"),
        "err-int-subscript": lambda s, i, j, k: a23(s)[i, 0],
        "err-chained-int-subscript": lambda s, i, j, k: a23(s)[i][0],
        "err-lhs-rank": lambda s, i, j, k: a23(s).__setitem__(i, 1.0),
        "err-rhs-rank": lambda s, i, j, k: s.tensor("c", [2]).__setitem__(i, a23(s)[i, j, k]),
        "err-range": lambda s, i, j, k: (lambda a: a.__setitem__((i, j), a[j, i]))(a23(s)),
        "err-unbound-index": lambda s, i, j, k: s.tensor("c", [2]).__setitem__(i, 1.0 + k),
        "err-reduce-in-assign": lambda s, i, j, k: s.tensor("c", [2]).__setitem__(i, a23(s)[i, k]),
        "err-string-rhs": lambda s, i, j, k: s.tensor("c", [2]).__setitem__(i, "x"),
        "err-bool-rhs": lambda s, i, j, k: s.tensor("c", [2]).__setitem__(i, True),
        "err-none-operand": lambda s, i, j, k: a23(s)[i, j] + None,
        "err-reflected-operand": lambda s, i, j, k: "x" * i,
        "err-unknown-mode": lambda s, i, j, k: einsum_assign(s.tensor("c", [2])[i], 1.0, "sub_assign"),
        "err-nested-kernel": lambda s, i, j, k: s.run_on_gpu(lambda: s.run_on_gpu(lambda: None)),
        "err-created-in-kernel": created_in_kernel,
        "err-no-device-buffer": foreign_tensor,  # copy_all only
    }


def _einsum_outcome(case, strategy) -> list:
    def generate(ctx):
        case(EinsumSession(ctx, strategy, max_bid=2, max_tid=3), Index("i"), Index("j"), Index("k"))

    try:
        program, stats = run_staged(generate, name="pinned")
    except Exception as exc:  # noqa: BLE001 - the pin records every failure
        return ["error", type(exc).__name__, str(exc)]
    return ["ok", emit_c(program), stats.runs, [event.name for event in stats.merge_log]]


def test_einsum_lowering_pinned():
    records = []
    for name, case in _einsum_corpus().items():
        for strategy in ("prophecy", "copy_all", "unified"):
            records.append([name, strategy, _einsum_outcome(case, strategy)])
    with pytest.raises(EinsumError) as no_manifest:
        movement_summary(run_staged(lambda ctx: None)[0])
    records.append([type(no_manifest.value).__name__, str(no_manifest.value)])
    for strategy in ("prophecy", "copy_all", "unified"):
        records.append([build_matmul_benchmark(2, 3, 4, strategy)[0].meta,
                        build_matvec_benchmark(3, 2, strategy)[0].meta])
    assert _digest(records) == "3bcc6734a90f75b076421f4354a38c3bc713b23dc4ce51d5b5ab6ad40db86ddf"
