"""Convolution/ReLU fusion decided by a threshold-carrying prophecy cell.

Part 1 of the benchmark branches between relu(2.0) and relu(4.0): both arms
are recorded in one pass, their requirements collide, and the cell settles
on "no fusion" — the convolution stays plain and each arm keeps its own
ReLU loop.  Part 2 uses a single relu(1.56) everywhere, so the clamp fuses
into the convolution loop and the ReLU site emits nothing.  Four runs in
total, matching one lattice merge per rerun plus the clean run.
"""

import numpy as np

from prophecy import build_conv_relu_benchmark, emit_c, interpret_program

SIZE, FILTER = 16, 3


def main():
    program, stats = build_conv_relu_benchmark(SIZE, FILTER)
    print(f"runs={stats.runs} merges={stats.merges}")
    for event in stats.merge_log:
        print(f"  run {event.run}: {event.name} {event.old_value} -> {event.new_value}")
    print()
    print(emit_c(program))

    unfused, unfused_stats = build_conv_relu_benchmark(SIZE, FILTER, fusion=False)
    print(f"fusion disabled: runs={unfused_stats.runs}")

    rng = np.random.default_rng(0)
    data = rng.standard_normal(SIZE).astype(np.float32) * 4
    weight = rng.standard_normal(FILTER).astype(np.float32)
    for flag in (1, 0):
        inputs = {
            "arg0": data, "arg1": weight, "arg2": flag,
            "arg3": np.zeros(SIZE), "arg4": np.zeros(SIZE),
        }
        fused_out = interpret_program(program, inputs)
        plain_out = interpret_program(unfused, inputs)
        diff1 = np.abs(fused_out["arg3"] - plain_out["arg3"]).max()
        diff2 = np.abs(fused_out["arg4"] - plain_out["arg4"]).max()
        print(f"branch flag {flag}: max |fused - unfused| = {max(diff1, diff2)}")


if __name__ == "__main__":
    main()
