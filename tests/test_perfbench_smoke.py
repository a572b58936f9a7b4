"""The benchmark's workloads, run small: every request passes its gate, twice alike.

Each workload's check is the benchmark's correctness gate (the worklist
oracle, both checkers, pinned run counts, the emitted-C digest, numpy
references), so running it here keeps a fast path from breaking the gate
between benchmark runs.  The three cheapest items of each pool keep this
short.  On the stage workloads those are matvec builds only, so the
cheapest matmul shape (all three strategies: the two-index block/thread
split) and the cheapest conv join them.  An analyze request evaluates its
standard execution once: the analysis and both checkers share one label path,
and every line of its program takes the parser's one-expression path.
The same requests, with conv/ReLU built without fusion beside them, leave no
cyclic garbage: reference counting frees each result once it is dropped.
"""

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

from prophecy import build_conv_relu_benchmark, core_lang, emit_c


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, allpaths_pool, concrete_pool, madds  # noqa: E402


def call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def cost(item):
    return item.expected["steps"] if "steps" in item.expected else madds(item)


def smoke_items(name):
    pool = sorted(WORKLOADS[name].pool(0), key=cost)
    items = pool[:3]
    if name.startswith("stage-"):
        matmul = next(item for item in pool if item.params["kind"] == "matmul")
        items += [item for item in pool if item.group == matmul.group]
        items.append(next(item for item in pool if item.params["kind"] == "conv"))
    return items


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cheapest_requests_pass_and_repeat(name):
    workload = WORKLOADS[name]
    items = smoke_items(name)

    def serve_all():
        memo = {}
        counters = {}
        for item in items:
            out = workload.request(item, call)
            counters[item.key], errors = workload.check(item, out, call, memo)
            assert errors == [], (item.key, errors)
        return counters

    assert serve_all() == serve_all()


@pytest.mark.parametrize("name", ["analyze-concrete", "analyze-allpaths"])
def test_analyze_requests_step_once_per_position(transitions, name):
    calls = transitions.calls
    for item in smoke_items(name):
        calls.clear()
        WORKLOADS[name].request(item, call)
        assert len(calls) == item.expected["steps"] + 1, item.key


def test_analyze_programs_take_the_one_expression_path(monkeypatch):
    """Every line of the analyze pools is one ``_match_command`` reads whole: none leaves the
    whole-line path, so none reaches the descent."""
    descents, refused = [], []
    parse_command, match_command = core_lang._parse_command, core_lang._match_command

    def counting(parser, rest, line_no, offset):
        descents.append(rest)
        return parse_command(parser, rest, line_no, offset)

    def matching(leaves, line):
        if (pair := match_command(leaves, line)) is None:
            refused.append(line)
        return pair

    monkeypatch.setattr(core_lang, "_parse_command", counting)
    monkeypatch.setattr(core_lang, "_match_command", matching)
    items = concrete_pool(1) + allpaths_pool(1)
    for item in items:
        core_lang.parse_program(item.params["text"])
    assert descents == []
    # only the empty text after each program's last newline, which is no line
    assert refused == [""] * len(items)
    core_lang.parse_program("l0: x := (1)\nl1: halt\nl2: done")  # the descent reads parentheses
    assert descents == [" x := (1)"]


def serve_and_drop() -> None:
    """Serve and check every smoke item, and build and emit conv/ReLU without fusion."""
    for name in sorted(WORKLOADS):
        memo = {}
        for item in smoke_items(name):
            out = WORKLOADS[name].request(item, call)
            assert WORKLOADS[name].check(item, out, call, memo)[1] == [], item.key
    emit_c(build_conv_relu_benchmark(24, 5, fusion=False)[0])


def test_requests_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        serve_and_drop()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds, to name it
        found = gc.collect()
        leaked = Counter(type(garbage).__name__ for garbage in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, f"{found} objects in reference cycles: {leaked.most_common(8)}"
