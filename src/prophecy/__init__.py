"""Prophecy-driven staged compilation and rerun-based backward dataflow.

Layers, bottom up:

* ``core_lang`` — a labeled imperative core language with small-step
  semantics;
* ``extended`` — the prophecy-extended semantics for live-variable
  prediction plus preservation/progress checkers;
* ``engine`` — the fixpoint engine that computes live variables by
  repeated forward execution, with a classical worklist oracle;
* ``staging`` / ``second_stage`` / ``interp`` — the staged-execution
  runtime: prophecy cells that persist across generator reruns, a
  second-stage recorder, C-like emission, and a reference interpreter;
* ``einsum`` / ``nn`` — two DSLs built on the runtime: tensor kernels with
  prophecy-driven GPU data movement, and convolution/ReLU fusion;
* ``cli`` — the ``prophecy`` command.
"""

from .core_lang import (
    ParseError,
    Program,
    ProgramStructureError,
    StepObligations,
    Trace,
    TraceKind,
    command_obligations,
    parse_program,
    run_trace,
)
from .engine import (
    RunStats,
    analyze_all_paths_with_stats,
    analyze_concrete,
    live_variables_oracle,
)
from .extended import CheckReport, check_preservation, check_progress
from .einsum import (
    EinsumSession,
    Index,
    TrueTopLattice,
    build_matmul_benchmark,
    build_matvec_benchmark,
    einsum_assign,
    movement_summary,
)
from .interp import InterpError, interpret_program
from .nn import FalseTopLattice, NnSession, build_conv_relu_benchmark
from .second_stage import RUNTIME_CALLS, SecondStageProgram, emit_c
from .staging import (
    HistoryVar,
    LatticeSpec,
    MispredictionSignal,
    ProphecyCell,
    StageContext,
    run_staged,
)

__all__ = [
    "CheckReport",
    "EinsumSession",
    "FalseTopLattice",
    "HistoryVar",
    "Index",
    "InterpError",
    "LatticeSpec",
    "MispredictionSignal",
    "NnSession",
    "ParseError",
    "Program",
    "ProgramStructureError",
    "ProphecyCell",
    "RUNTIME_CALLS",
    "RunStats",
    "SecondStageProgram",
    "StageContext",
    "StepObligations",
    "Trace",
    "TraceKind",
    "TrueTopLattice",
    "analyze_all_paths_with_stats",
    "analyze_concrete",
    "build_conv_relu_benchmark",
    "build_matmul_benchmark",
    "build_matvec_benchmark",
    "check_preservation",
    "check_progress",
    "command_obligations",
    "einsum_assign",
    "emit_c",
    "interpret_program",
    "live_variables_oracle",
    "movement_summary",
    "parse_program",
    "run_staged",
    "run_trace",
]
