"""Einsum tensor DSL with prophecy-driven GPU data movement.

Tensor assignments are written in index notation (``z[i, j] += x[i, k] *
y[k, j]``) and lower to loop nests: one loop per left-hand index, one inner
loop per reduction index accumulating into a scalar.  Inside ``run_on_gpu``
the outer one or two left-hand loops are mapped onto a simulated
(block, thread) grid with grid-stride steps.

Data movement is decided by prophecy cells on each tensor:

* ``needs_gpu`` (per tensor, whole session) — true if any GPU code touches
  the tensor; gates the device allocation;
* ``gpu_read`` (per tensor, created fresh for each kernel) — true if this
  kernel reads the tensor; gates the host-to-device copy;
* ``gpu_written`` (history, reset per kernel) — set by GPU stores; gates the
  device-to-host copy after the kernel.

Every GPU read requires both cells to be true, every GPU store requires
``needs_gpu``; initial predictions are false, so mispredictions rerun the
generator until exactly the touched tensors are allocated and exactly the
read/written ones are copied.  ``copy_all`` and ``unified`` strategies
bypass the cells (move everything / share one buffer) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .second_stage import _ELEM_BYTES, RuntimeCall, SecondStageProgram
from .staging import (
    HistoryVar,
    LatticeSpec,
    ProphecyCell,
    StageContext,
    StageStats,
    StagedExpr,
    run_staged,
)

STRATEGIES = ("prophecy", "copy_all", "unified")

DEFAULT_MAX_BID = 40
DEFAULT_MAX_TID = 512


class EinsumError(Exception):
    pass


class TrueTopLattice(LatticeSpec):
    """Boolean chain with true on top: F < T."""

    name = "true_top"
    max_rank = 1
    F = "F"
    T = "T"

    def satisfies(self, current, required):
        return required == self.F or current == self.T

    def merge(self, current, required):
        return self.T

    def rank(self, value):
        return 0 if value == self.F else 1

    def contains(self, value):
        return value in (self.F, self.T)


TRUE_TOP = TrueTopLattice()


class Index:
    """Einsum index variable; its range binds per statement at first use."""

    __slots__ = ("name", "range", "handle")

    def __init__(self, name: str):
        self.name = name
        self.range: int | None = None
        self.handle: StagedExpr | None = None

    def __repr__(self) -> str:
        return f"Index({self.name!r})"

    def __add__(self, other):
        return _to_term(self)._combine("+", other)

    def __radd__(self, other):
        return _to_term(other)._combine("+", self)

    def __mul__(self, other):
        return _to_term(self)._combine("*", other)

    def __rmul__(self, other):
        return _to_term(other)._combine("*", self)


class Tensor:
    """A named float tensor participating in staged einsum computation."""

    def __init__(
        self,
        session: "EinsumSession",
        name: str,
        sizes: Sequence[int],
        buffer: StagedExpr | None = None,
    ):
        if not sizes or any(s <= 0 for s in sizes):
            raise EinsumError(f"tensor {name!r} needs nonempty positive sizes, got {sizes}")
        self.session = session
        self.name = name
        self.sizes = tuple(int(s) for s in sizes)
        self.external = buffer is not None
        ctx = session.ctx
        self.needs_gpu: ProphecyCell = ctx.prophecy_cell(
            TRUE_TOP, TrueTopLattice.F, name=f"needs_gpu[{name}]"
        )
        self.gpu_written = HistoryVar(ctx, False)
        self.gpu_read: ProphecyCell | None = None
        if buffer is not None:
            self.host_buffer = buffer
        else:
            self.host_buffer = ctx.declare(
                "float*", ctx.runtime_expr("runtime::malloc", self.total_size * _ELEM_BYTES)
            )
        self.device_buffer: StagedExpr | None = None
        if session.strategy == "copy_all" or (
            session.strategy == "prophecy" and self.needs_gpu.get() == TrueTopLattice.T
        ):
            self.device_buffer = ctx.declare(
                "float*",
                ctx.runtime_expr("runtime::cuda_malloc", self.total_size * _ELEM_BYTES),
            )

    @property
    def total_size(self) -> int:
        total = 1
        for s in self.sizes:
            total *= s
        return total

    @property
    def rank(self) -> int:
        return len(self.sizes)

    def _device(self) -> StagedExpr:
        if self.device_buffer is None:
            raise EinsumError(f"tensor {self.name!r} has no device buffer")
        return self.device_buffer

    def __getitem__(self, indices) -> "TensorAccess":
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorAccess(self, list(indices))

    def __setitem__(self, indices, value) -> None:
        if isinstance(value, TensorAccess) and value._consumed:
            return  # ``t[i] += rhs`` already recorded via __iadd__
        access = self[indices]
        einsum_assign(access, value, "assign")


class TensorAccess:
    """A tensor applied to index variables, e.g. ``x[i, k]``."""

    def __init__(self, tensor: Tensor, indices: list[Index]):
        for index in indices:
            if not isinstance(index, Index):
                raise EinsumError(f"tensor subscripts must be Index objects, got {index!r}")
        self.tensor = tensor
        self.indices = indices
        self._consumed = False

    def __getitem__(self, index: Index) -> "TensorAccess":
        return TensorAccess(self.tensor, self.indices + [index])

    def __setitem__(self, index: Index, value) -> None:
        # chained-subscript assignment: t[i][j] = rhs
        if isinstance(value, TensorAccess) and value._consumed:
            return
        einsum_assign(self[index], value, "assign")

    def __iadd__(self, other):
        einsum_assign(self, other, "add_assign")
        self._consumed = True
        return self

    def __imul__(self, other):
        einsum_assign(self, other, "mul_assign")
        self._consumed = True
        return self

    def __add__(self, other):
        return _to_term(self)._combine("+", other)

    def __radd__(self, other):
        return _to_term(other)._combine("+", self)

    def __mul__(self, other):
        return _to_term(self)._combine("*", other)

    def __rmul__(self, other):
        return _to_term(other)._combine("*", self)

    def distinct_indices(self) -> list[Index]:
        out: list[Index] = []
        for index in self.indices:
            if index not in out:
                out.append(index)
        return out

    def bind_ranges(self) -> None:
        if len(self.indices) != self.tensor.rank:
            raise EinsumError(
                f"tensor {self.tensor.name!r} has rank {self.tensor.rank} but"
                f" {len(self.indices)} subscripts were given"
            )
        for index, size in zip(self.indices, self.tensor.sizes):
            if index.range is not None and index.range != size:
                raise EinsumError(
                    f"index {index.name!r} ranges over {index.range} elsewhere in this"
                    f" statement but over {size} in tensor {self.tensor.name!r}"
                )
            index.range = size

    def flat_index(self) -> StagedExpr:
        """Row-major flattening: sum of it_d times the product of trailing sizes."""
        sizes = self.tensor.sizes

        def build(d: int) -> StagedExpr:
            it = self.indices[d].handle
            if it is None:
                raise EinsumError(f"index {self.indices[d].name!r} used outside its loop")
            if d + 1 == len(sizes):
                return it
            trailing = 1
            for s in sizes[d + 1 :]:
                trailing *= s
            return it * trailing + build(d + 1)

        return build(0)


@dataclass
class TensorTerm:
    """Right-hand-side expression: constants, accesses, indices, sums, products."""

    kind: str  # value | access | index | sum | product
    value: float | int | None = None
    access: TensorAccess | None = None
    index: Index | None = None
    left: "TensorTerm | None" = None
    right: "TensorTerm | None" = None

    def _combine(self, op: str, other) -> "TensorTerm":
        return TensorTerm(
            "sum" if op == "+" else "product", left=self, right=_to_term(other)
        )

    def __add__(self, other):
        return self._combine("+", other)

    def __radd__(self, other):
        return _to_term(other)._combine("+", self)

    def __mul__(self, other):
        return self._combine("*", other)

    def __rmul__(self, other):
        return _to_term(other)._combine("*", self)

    def gather_indices(self) -> list[Index]:
        if self.kind == "access":
            return self.access.distinct_indices()
        if self.kind == "index":
            return [self.index]
        if self.kind in ("sum", "product"):
            out = self.left.gather_indices()
            for index in self.right.gather_indices():
                if index not in out:
                    out.append(index)
            return out
        return []

    def bind_ranges(self) -> None:
        if self.kind == "access":
            self.access.bind_ranges()
        elif self.kind in ("sum", "product"):
            self.left.bind_ranges()
            self.right.bind_ranges()

    def tensors_read(self) -> list[Tensor]:
        if self.kind == "access":
            return [self.access.tensor]
        if self.kind in ("sum", "product"):
            out = self.left.tensors_read()
            for tensor in self.right.tensors_read():
                if tensor not in out:
                    out.append(tensor)
            return out
        return []

    def staged_value(self, session: "EinsumSession") -> StagedExpr:
        if self.kind == "value":
            return session.ctx.lift(float(self.value))
        if self.kind == "index":
            if self.index.handle is None:
                raise EinsumError(f"index {self.index.name!r} used outside its loop")
            return self.index.handle
        if self.kind == "access":
            return session._read_element(self.access)
        left = self.left.staged_value(session)
        right = self.right.staged_value(session)
        return left + right if self.kind == "sum" else left * right


def _to_term(value) -> TensorTerm:
    if isinstance(value, TensorTerm):
        return value
    if isinstance(value, TensorAccess):
        return TensorTerm("access", access=value)
    if isinstance(value, Index):
        return TensorTerm("index", index=value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return TensorTerm("value", value=value)
    raise EinsumError(f"cannot use {value!r} in an einsum expression")


class EinsumSession:
    """One DSL generation session: strategy, tensor registry, device marker."""

    def __init__(
        self,
        ctx: StageContext,
        strategy: str = "prophecy",
        *,
        max_bid: int = DEFAULT_MAX_BID,
        max_tid: int = DEFAULT_MAX_TID,
    ):
        if strategy not in STRATEGIES:
            raise EinsumError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.ctx = ctx
        self.strategy = strategy
        self.max_bid = max_bid
        self.max_tid = max_tid
        self.tensors: list[Tensor] = []
        self.on_gpu = False
        self.bid: StagedExpr | None = None
        self.tid: StagedExpr | None = None

    def tensor(self, name: str, sizes: Sequence[int], buffer: StagedExpr | None = None) -> Tensor:
        if any(t.name == name for t in self.tensors):
            raise EinsumError(f"duplicate tensor name {name!r}")
        tensor = Tensor(self, name, sizes, buffer)
        self.tensors.append(tensor)
        return tensor

    # -- element access (called during lowering) ---------------------------

    def _read_element(self, access: TensorAccess) -> StagedExpr:
        tensor = access.tensor
        if self.on_gpu and self.strategy != "unified":
            if self.strategy == "prophecy":
                if tensor.gpu_read is None:
                    raise EinsumError(
                        f"tensor {tensor.name!r} was created inside the GPU context"
                    )
                tensor.needs_gpu.require(TrueTopLattice.T)
                tensor.gpu_read.require(TrueTopLattice.T)
            return tensor._device()[access.flat_index()]
        return tensor.host_buffer[access.flat_index()]

    def _store_target(self, access: TensorAccess) -> tuple[StagedExpr, StagedExpr]:
        tensor = access.tensor
        if self.on_gpu and self.strategy != "unified":
            if self.strategy == "prophecy":
                tensor.needs_gpu.require(TrueTopLattice.T)
                tensor.gpu_written.set(True)
            return tensor._device(), access.flat_index()
        return tensor.host_buffer, access.flat_index()

    # -- kernel recording ---------------------------------------------------

    def run_on_gpu(self, kernel: Callable[[], None]) -> None:
        """Record data movement around a kernel and the kernel under the grid.

        Per registered tensor: a fresh ``gpu_read`` cell predicts whether this
        kernel reads it (host-to-device copy iff true), and ``gpu_written``
        history decides the copy back.  The kernel body is recorded once
        inside the simulated (block, thread) grid loops.
        """
        if self.on_gpu:
            raise EinsumError("nested run_on_gpu is not supported")
        ctx = self.ctx
        for tensor in self.tensors:
            if self.strategy == "copy_all":
                ctx.runtime(
                    "runtime::cudaMemcpyToDevice",
                    tensor._device(),
                    tensor.host_buffer,
                    tensor.total_size * _ELEM_BYTES,
                )
            elif self.strategy == "prophecy":
                tensor.gpu_read = ctx.prophecy_cell(
                    TRUE_TOP, TrueTopLattice.F, name=f"gpu_read[{tensor.name}]"
                )
                tensor.gpu_written.set(False)
                if tensor.gpu_read.get() == TrueTopLattice.T:
                    ctx.runtime(
                        "runtime::cudaMemcpyToDevice",
                        tensor._device(),
                        tensor.host_buffer,
                        tensor.total_size * _ELEM_BYTES,
                    )
        self.on_gpu = True

        def tid_loop(bid: StagedExpr):
            def body(tid: StagedExpr):
                self.bid = bid
                self.tid = tid
                kernel()

            ctx.for_loop(0, self.max_tid, 1, body)

        ctx.for_loop(0, self.max_bid, 1, tid_loop)
        self.on_gpu = False
        self.bid = None
        self.tid = None
        for tensor in self.tensors:
            if self.strategy == "copy_all":
                ctx.runtime(
                    "runtime::cudaMemcpyToHost",
                    tensor.host_buffer,
                    tensor._device(),
                    tensor.total_size * _ELEM_BYTES,
                )
            elif self.strategy == "prophecy":
                if tensor.gpu_written.get():
                    ctx.runtime(
                        "runtime::cudaMemcpyToHost",
                        tensor.host_buffer,
                        tensor._device(),
                        tensor.total_size * _ELEM_BYTES,
                    )
                tensor.gpu_read.destroy()
                tensor.gpu_read = None
                tensor.gpu_written.set(False)


def einsum_assign(lhs: TensorAccess, rhs, mode: str) -> None:
    """Lower an index-notation assignment to a recorded loop nest.

    Indices on the right but not the left are reduction indices; they get
    inner loops accumulating into a scalar (unit 0 for ``add_assign``, 1 for
    ``mul_assign``).  ``assign`` admits no reduction indices.
    """
    if mode not in ("assign", "add_assign", "mul_assign"):
        raise EinsumError(f"unknown einsum mode {mode!r}")
    session = lhs.tensor.session
    term = _to_term(rhs)

    lhs_indices = lhs.distinct_indices()
    rhs_indices = term.gather_indices()
    for index in lhs_indices + rhs_indices:
        index.range = None  # ranges rebind per statement
    lhs.bind_ranges()
    term.bind_ranges()
    for index in lhs_indices + rhs_indices:
        if index.range is None:
            raise EinsumError(f"index {index.name!r} never meets a tensor dimension")
    reduce_indices = [i for i in rhs_indices if i not in lhs_indices]
    if mode == "assign" and reduce_indices:
        names = ", ".join(i.name for i in reduce_indices)
        raise EinsumError(f"plain assignment cannot reduce over {names}")

    ctx = session.ctx

    def innermost() -> None:
        buffer, flat = session._store_target(lhs)
        if mode == "assign":
            ctx.assign(buffer[flat], term.staged_value(session))
            return
        unit = 0.0 if mode == "add_assign" else 1.0
        acc = ctx.declare("float", unit)

        def reduce_loops(depth: int) -> None:
            if depth == len(reduce_indices):
                value = term.staged_value(session)
                ctx.assign(acc, acc + value if mode == "add_assign" else acc * value)
                return

            def body(it: StagedExpr) -> None:
                reduce_indices[depth].handle = it
                reduce_loops(depth + 1)

            ctx.for_loop(0, reduce_indices[depth].range, 1, body)
            reduce_indices[depth].handle = None

        reduce_loops(0)
        ctx.assign(buffer[flat], acc)

    def lhs_loops(depth: int) -> None:
        if depth == len(lhs_indices):
            innermost()
            return
        if session.on_gpu and depth == 0:
            stride = session.max_bid * session.max_tid
            if len(lhs_indices) == 1:
                thread = ctx.declare("int", session.bid * session.max_tid + session.tid)

                def body(it: StagedExpr) -> None:
                    lhs_indices[0].handle = it
                    lhs_loops(1)

                ctx.for_loop(thread, lhs_indices[0].range, stride, body)
                lhs_indices[0].handle = None
                ctx.runtime("runtime::grid_sync")
                return
            # two or more output indices: block-stride the first, thread-stride
            # the second, plain loops below
            def outer(it0: StagedExpr) -> None:
                lhs_indices[0].handle = it0

                def inner(it1: StagedExpr) -> None:
                    lhs_indices[1].handle = it1
                    lhs_loops(2)

                ctx.for_loop(session.tid, lhs_indices[1].range, session.max_tid, inner)
                lhs_indices[1].handle = None

            ctx.for_loop(session.bid, lhs_indices[0].range, session.max_bid, outer)
            lhs_indices[0].handle = None
            ctx.runtime("runtime::grid_sync")
            return

        def body(it: StagedExpr) -> None:
            lhs_indices[depth].handle = it
            lhs_loops(depth + 1)

        ctx.for_loop(0, lhs_indices[depth].range, 1, body)
        lhs_indices[depth].handle = None

    lhs_loops(0)


# --------------------------------------------------------------------------
# Benchmarks
# --------------------------------------------------------------------------


def build_matmul_benchmark(
    m: int,
    n: int,
    o: int,
    strategy: str = "prophecy",
    *,
    max_bid: int = DEFAULT_MAX_BID,
    max_tid: int = DEFAULT_MAX_TID,
) -> tuple[SecondStageProgram, StageStats]:
    """Six tensors, host copies in, one GPU matmul kernel, host copy out.

    Working tensors x (m×n), y (n×o), z (m×o) are filled from and drained to
    the externally supplied buffers x_b, y_b, z_b; only x, y are read and
    only z is written inside the kernel.
    """

    def generate(ctx: StageContext) -> None:
        session = EinsumSession(ctx, strategy, max_bid=max_bid, max_tid=max_tid)
        x_data = ctx.parameter("float*")
        y_data = ctx.parameter("float*")
        z_data = ctx.parameter("float*")
        i, j, k = Index("i"), Index("j"), Index("k")
        x = session.tensor("x", [m, n])
        x_b = session.tensor("x_b", [m, n], buffer=x_data)
        y = session.tensor("y", [n, o])
        y_b = session.tensor("y_b", [n, o], buffer=y_data)
        z = session.tensor("z", [m, o])
        z_b = session.tensor("z_b", [m, o], buffer=z_data)

        x[i, j] = x_b[i, j]
        y[i, j] = y_b[i, j]

        def kernel() -> None:
            z[i, j] += x[i, k] * y[k, j]

        session.run_on_gpu(kernel)
        z_b[i, j] = z[i, j]
        _record_meta(session)

    return run_staged(generate, name="matmul")


def build_matvec_benchmark(
    m: int,
    n: int,
    strategy: str = "prophecy",
    *,
    max_bid: int = DEFAULT_MAX_BID,
    max_tid: int = DEFAULT_MAX_TID,
) -> tuple[SecondStageProgram, StageStats]:
    """Matrix-vector analogue of the matmul benchmark (z[i] += x[i,k]·y[k])."""

    def generate(ctx: StageContext) -> None:
        session = EinsumSession(ctx, strategy, max_bid=max_bid, max_tid=max_tid)
        x_data = ctx.parameter("float*")
        y_data = ctx.parameter("float*")
        z_data = ctx.parameter("float*")
        i, k = Index("i"), Index("k")
        x = session.tensor("x", [m, n])
        x_b = session.tensor("x_b", [m, n], buffer=x_data)
        y = session.tensor("y", [n])
        y_b = session.tensor("y_b", [n], buffer=y_data)
        z = session.tensor("z", [m])
        z_b = session.tensor("z_b", [m], buffer=z_data)

        x[i, k] = x_b[i, k]
        y[k] = y_b[k]

        def kernel() -> None:
            z[i] += x[i, k] * y[k]

        session.run_on_gpu(kernel)
        z_b[i] = z[i]
        _record_meta(session)

    return run_staged(generate, name="matvec")


def _record_meta(session: EinsumSession) -> None:
    """Stash tensor-to-variable naming on the program for movement scans."""
    tensors = {}
    for t in session.tensors:
        tensors[t.name] = {
            "host": t.host_buffer.node.name,
            "device": t.device_buffer.node.name if t.device_buffer is not None else None,
            "sizes": list(t.sizes),
        }
    session.ctx.program_meta = {
        "tensors": tensors,
        "strategy": session.strategy,
        "grid": [session.max_bid, session.max_tid],
    }


@dataclass(frozen=True)
class MovementSummary:
    device_allocations: frozenset[str]
    copied_to_device: frozenset[str]
    copied_to_host: frozenset[str]


def movement_summary(program: SecondStageProgram) -> MovementSummary:
    """Static scan of an emitted benchmark: which tensors move where.

    Uses the naming manifest the builders attach to the program to map
    buffer variables back to tensor names.
    """
    tensors = program.meta.get("tensors")
    if tensors is None:
        raise EinsumError("program carries no tensor manifest")
    by_host = {info["host"]: name for name, info in tensors.items()}
    by_device = {info["device"]: name for name, info in tensors.items() if info["device"]}
    allocations = frozenset(
        name
        for name, info in tensors.items()
        if info["device"] is not None
    )
    to_device: set[str] = set()
    to_host: set[str] = set()

    def walk(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, RuntimeCall):
                if stmt.name == "runtime::cudaMemcpyToDevice":
                    to_device.add(by_device[stmt.args[0].name])
                elif stmt.name == "runtime::cudaMemcpyToHost":
                    to_host.add(by_host[stmt.args[0].name])
            elif hasattr(stmt, "body"):
                walk(stmt.body)
            elif hasattr(stmt, "then_body"):
                walk(stmt.then_body)
                if stmt.else_body:
                    walk(stmt.else_body)

    walk(program.body)
    return MovementSummary(allocations, frozenset(to_device), frozenset(to_host))
