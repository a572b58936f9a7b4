"""The benchmark's workloads, run small: every request passes its gate, twice alike.

Each workload's check is the benchmark's correctness gate (the worklist
oracle, both checkers, pinned run counts, the emitted-C digest, numpy
references), so running it here keeps a fast path from breaking the gate
between benchmark runs.  The three cheapest items of each pool keep this
short.
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cheapest_requests_pass_and_repeat(name):
    workload = WORKLOADS[name]
    items = sorted(workload.pool(0), key=cost)[:3]

    def serve_all():
        memo = {}
        counters = {}
        for item in items:
            out = workload.request(item, call)
            counters[item.key], errors = workload.check(item, out, call, memo)
            assert errors == [], (item.key, errors)
        return counters

    assert serve_all() == serve_all()
