"""Prophecy-driven GPU data movement for the einsum matmul benchmark.

Six tensors; the kernel reads two and writes one.  The prophecy strategy
discovers exactly that by rerunning on mispredictions: device buffers for
three tensors, copies in for the two read, a copy out for the one written.
Compare with copy-all (everything moves) and unified (nothing moves), and
confirm all three interpret to bit-identical results.
"""

import numpy as np

from prophecy import build_matmul_benchmark, emit_c, interpret_program, movement_summary

M = N = O = 8


def main():
    rng = np.random.default_rng(0)
    x = rng.random(M * N, dtype=np.float32)
    y = rng.random(N * O, dtype=np.float32)
    inputs = {"arg0": x, "arg1": y, "arg2": np.zeros(M * O, dtype=np.float32)}

    outputs = {}
    for strategy in ("prophecy", "copy_all", "unified"):
        program, stats = build_matmul_benchmark(M, N, O, strategy)
        moves = movement_summary(program)
        print(f"== {strategy} ==")
        print(f"  runs: {stats.runs} (merges: {stats.merges})")
        for event in stats.merge_log:
            print(f"    run {event.run}: {event.name} {event.old_value} -> {event.new_value}")
        print(f"  device allocations: {sorted(moves.device_allocations)}")
        print(f"  copied to device:   {sorted(moves.copied_to_device)}")
        print(f"  copied to host:     {sorted(moves.copied_to_host)}")
        outputs[strategy] = interpret_program(program, inputs)["arg2"]

    assert np.array_equal(outputs["prophecy"], outputs["copy_all"])
    assert np.array_equal(outputs["prophecy"], outputs["unified"])
    print("\nall strategies produce bit-identical results")

    got = outputs["prophecy"].reshape(M, O)
    ref = (x.reshape(M, N).astype(np.float64) @ y.reshape(N, O).astype(np.float64))
    print("max deviation from float64 matmul:", np.abs(got - ref).max())

    print("\nemitted code under the prophecy strategy:\n")
    program, _ = build_matmul_benchmark(4, 4, 4, "prophecy", max_bid=2, max_tid=4)
    print(emit_c(program))


if __name__ == "__main__":
    main()
