"""The benchmark's workloads, run small: every request passes its gate, twice alike.

Each workload's check is the benchmark's correctness gate (the worklist
oracle, both checkers, pinned run counts, the emitted-C digest, numpy
references), so running it here keeps a fast path from breaking the gate
between benchmark runs.  The three cheapest items of each pool keep this
short.  On the stage workloads those are matvec builds only, so the
cheapest matmul shape (all three strategies: the two-index block/thread
split) and the cheapest conv join them.  An analyze request evaluates its
standard execution once: the analysis and both checkers share one label path.
"""

import sys
from pathlib import Path

import pytest


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, madds  # noqa: E402


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
