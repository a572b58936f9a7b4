"""Pinned outputs: refactors of the engine and the staged runtime keep these bytes.

Each digest covers the analysis results together with the rerun statistics
(or the emitted C together with the run count), so a change in any run
count, any result set or any emitted byte shows as a digest mismatch.
"""

import hashlib
import json
import random

import pytest

from prophecy.einsum import build_matmul_benchmark, build_matvec_benchmark
from prophecy.engine import analyze_all_paths_with_stats, analyze_concrete
from prophecy.nn import build_conv_relu_benchmark
from prophecy.second_stage import emit_c
from randprog import corpus, terminating_sample


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
