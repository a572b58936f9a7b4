"""Einsum tensor DSL with prophecy-driven GPU data movement.

Tensor assignments are written in index notation (``z[i, j] += x[i, k] *
y[k, j]``) and lower to loop nests: one loop per left-hand index, one inner
loop per reduction index accumulating into a scalar.  Inside ``run_on_gpu``
the outer one or two left-hand loops are mapped onto a simulated
(block, thread) grid with grid-stride steps.

``+`` and ``*`` on accesses, indices and terms build a ``TensorTerm`` tree
of ``(op, left, right)`` whose leaves are the accesses, indices and numbers
themselves.  Lowering walks the leaves once, left to right, to collect the
statement's indices and bind their ranges, then records every loop of the
nest through one binder and stages the right-hand side with one recursive
value function that reads through one host-or-device buffer choice.  Each
``EinsumSession`` keeps the naming manifest ``movement_summary`` reads in
``ctx.program_meta`` as it creates tensors.

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
from math import prod
from typing import Any, Callable, Iterator, Sequence

from .second_stage import _ELEM_BYTES, RuntimeCall, SecondStageProgram, iter_stmts
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


class _Operators:
    """``+`` and ``*`` on any einsum operand build a ``TensorTerm``."""

    __slots__ = ()

    def __add__(self, other):
        return TensorTerm("+", self, _operand(other))

    def __radd__(self, other):
        return TensorTerm("+", _operand(other), self)

    def __mul__(self, other):
        return TensorTerm("*", self, _operand(other))

    def __rmul__(self, other):
        return TensorTerm("*", _operand(other), self)


class Index(_Operators):
    """Einsum index variable; its range binds per statement at first use."""

    __slots__ = ("name", "range", "handle")

    def __init__(self, name: str):
        self.name = name
        self.range: int | None = None
        self.handle: StagedExpr | None = None

    def __repr__(self) -> str:
        return f"Index({self.name!r})"


class Tensor:
    """A named float tensor participating in staged einsum computation."""

    def __init__(
        self,
        session: "EinsumSession",
        name: str,
        sizes: Sequence[int],
        buffer: StagedExpr | None = None,
    ):
        if any(isinstance(s, bool) or not isinstance(s, int) for s in sizes):
            raise EinsumError(f"tensor {name!r} needs int sizes, got {sizes}")
        if not sizes or any(s <= 0 for s in sizes):
            raise EinsumError(f"tensor {name!r} needs nonempty positive sizes, got {sizes}")
        self.session = session
        self.name = name
        self.sizes = tuple(sizes)
        self.total_size = prod(self.sizes)
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

    def __getitem__(self, indices) -> "TensorAccess":
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorAccess(self, list(indices))

    def __setitem__(self, indices, value) -> None:
        _assign(self[indices], value)


class TensorAccess(_Operators):
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
        _assign(self[index], value)  # chained-subscript assignment: t[i][j] = rhs

    def __iadd__(self, other):
        einsum_assign(self, other, "add_assign")
        self._consumed = True
        return self

    def __imul__(self, other):
        einsum_assign(self, other, "mul_assign")
        self._consumed = True
        return self

    def bind_ranges(self) -> None:
        sizes = self.tensor.sizes
        if len(self.indices) != len(sizes):
            raise EinsumError(
                f"tensor {self.tensor.name!r} has rank {len(sizes)} but"
                f" {len(self.indices)} subscripts were given"
            )
        for index, size in zip(self.indices, sizes):
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
            if d + 1 == len(sizes):
                return it
            return it * prod(sizes[d + 1 :]) + build(d + 1)

        return build(0)


@dataclass(frozen=True)
class TensorTerm(_Operators):
    """A sum or product of two operands: terms, accesses, indices or numbers."""

    op: str  # + or *
    left: TensorTerm | TensorAccess | Index | float
    right: TensorTerm | TensorAccess | Index | float


def _operand(value):
    if isinstance(value, (TensorTerm, TensorAccess, Index)):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise EinsumError(f"cannot use {value!r} in an einsum expression")


def _leaves(term) -> Iterator:
    """The accesses, indices and numbers of ``term``, left to right."""
    if isinstance(term, TensorTerm):
        yield from _leaves(term.left)
        yield from _leaves(term.right)
    else:
        yield term


def _value(term, session: "EinsumSession") -> StagedExpr:
    """Stage ``term`` inside its loops, reading tensors through ``session``."""
    if isinstance(term, TensorTerm):
        left, right = _value(term.left, session), _value(term.right, session)
        return left + right if term.op == "+" else left * right
    if isinstance(term, TensorAccess):
        return session._element(term, store=False)
    if isinstance(term, Index):
        return term.handle
    return session.ctx.lift(float(term))


def _assign(access: TensorAccess, value) -> None:
    if not (isinstance(value, TensorAccess) and value._consumed):
        einsum_assign(access, value, "assign")  # ``t[i] += rhs`` recorded it via __iadd__


class EinsumSession:
    """One DSL generation session: strategy, tensor registry, device marker.

    The session keeps the naming manifest ``movement_summary`` reads in
    ``ctx.program_meta``: each tensor's host and device buffer variables and
    sizes, the strategy and the grid.
    """

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
        ctx.program_meta = {"tensors": {}, "strategy": strategy, "grid": [max_bid, max_tid]}

    def tensor(self, name: str, sizes: Sequence[int], buffer: StagedExpr | None = None) -> Tensor:
        if self.on_gpu:
            raise EinsumError(f"tensor {name!r} cannot be created inside run_on_gpu")
        if any(t.name == name for t in self.tensors):
            raise EinsumError(f"duplicate tensor name {name!r}")
        tensor = Tensor(self, name, sizes, buffer)
        self.tensors.append(tensor)
        device = tensor.device_buffer
        self.ctx.program_meta["tensors"][name] = {
            "host": tensor.host_buffer.node.name,
            "device": device.node.name if device is not None else None,
            "sizes": list(tensor.sizes),
        }
        return tensor

    def _element(self, access: TensorAccess, store: bool) -> StagedExpr:
        """The element ``access`` names in the buffer this code runs against.

        GPU code under the prophecy strategy requires ``needs_gpu`` and, to
        read, ``gpu_read``; a store sets ``gpu_written``.
        """
        tensor = access.tensor
        if not self.on_gpu or self.strategy == "unified":
            return tensor.host_buffer[access.flat_index()]
        if self.strategy == "prophecy":
            if not store and tensor.gpu_read is None:
                raise EinsumError(f"tensor {tensor.name!r} belongs to another EinsumSession"
                                  f" (strategy {tensor.session.strategy!r})")
            tensor.needs_gpu.require(TrueTopLattice.T)
            if store:
                tensor.gpu_written.set(True)
            else:
                tensor.gpu_read.require(TrueTopLattice.T)
        if tensor.device_buffer is None:
            raise EinsumError(f"tensor {tensor.name!r} has no device buffer")
        return tensor.device_buffer[access.flat_index()]

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
        prophecy, copy_all = self.strategy == "prophecy", self.strategy == "copy_all"
        for tensor in self.tensors:
            if prophecy:
                tensor.gpu_read = ctx.prophecy_cell(
                    TRUE_TOP, TrueTopLattice.F, name=f"gpu_read[{tensor.name}]"
                )
                tensor.gpu_written.set(False)
            if copy_all or prophecy and tensor.gpu_read.get() == TrueTopLattice.T:
                ctx.runtime(
                    "runtime::cudaMemcpyToDevice",
                    tensor.device_buffer,
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
            if copy_all or tensor.gpu_written.get():  # only prophecy GPU stores set it
                ctx.runtime(
                    "runtime::cudaMemcpyToHost",
                    tensor.host_buffer,
                    tensor.device_buffer,
                    tensor.total_size * _ELEM_BYTES,
                )
            if prophecy:
                tensor.gpu_read = None
                tensor.gpu_written.set(False)


def _loop_nest(ctx: StageContext, loops: list[tuple[Index, Any, Any]], body: Callable) -> None:
    """Record ``body`` inside ``loops``, outermost first.

    Each ``(index, start, step)`` loops from ``start`` by ``step`` over the
    index's range, with the index's handle bound while its body records.
    """
    if not loops:
        body()
        return
    index, start, step = loops[0]

    def bound(it: StagedExpr) -> None:
        index.handle = it
        _loop_nest(ctx, loops[1:], body)

    ctx.for_loop(start, index.range, step, bound)
    index.handle = None


def einsum_assign(lhs: TensorAccess, rhs, mode: str) -> None:
    """Lower an index-notation assignment to a recorded loop nest.

    Indices on the right but not the left are reduction indices; they get
    inner loops accumulating into a scalar (unit 0 for ``add_assign``, 1 for
    ``mul_assign``).  ``assign`` admits no reduction indices.  On the GPU a
    single output index is grid-strided over flat thread ids; with two or
    more, the first is block-strided and the second thread-strided.
    """
    if mode not in ("assign", "add_assign", "mul_assign"):
        raise EinsumError(f"unknown einsum mode {mode!r}")
    session = lhs.tensor.session
    term = _operand(rhs)

    leaves = [lhs, *_leaves(term)]
    indices: dict[Index, None] = {}  # the statement's indices in order of first use
    for leaf in leaves:
        for index in leaf.indices if isinstance(leaf, TensorAccess) else [leaf]:
            if isinstance(index, Index):
                index.range = None  # ranges rebind per statement
                indices[index] = None
    for leaf in leaves:
        if isinstance(leaf, TensorAccess):
            leaf.bind_ranges()
    for index in indices:
        if index.range is None:
            raise EinsumError(f"index {index.name!r} never meets a tensor dimension")
    outputs = list(dict.fromkeys(lhs.indices))
    reductions = [i for i in indices if i not in outputs]
    if mode == "assign" and reductions:
        names = ", ".join(i.name for i in reductions)
        raise EinsumError(f"plain assignment cannot reduce over {names}")

    ctx = session.ctx
    loops = [(index, 0, 1) for index in outputs]
    if session.on_gpu and len(outputs) == 1:
        thread = ctx.declare("int", session.bid * session.max_tid + session.tid)
        loops[0] = (outputs[0], thread, session.max_bid * session.max_tid)
    elif session.on_gpu:
        loops[:2] = [(outputs[0], session.bid, session.max_bid),
                     (outputs[1], session.tid, session.max_tid)]

    def innermost() -> None:
        target = session._element(lhs, store=True)
        if mode == "assign":
            ctx.assign(target, _value(term, session))
            return
        acc = ctx.declare("float", 0.0 if mode == "add_assign" else 1.0)

        def accumulate() -> None:
            value = _value(term, session)
            ctx.assign(acc, acc + value if mode == "add_assign" else acc * value)

        _loop_nest(ctx, [(index, 0, 1) for index in reductions], accumulate)
        ctx.assign(target, acc)

    _loop_nest(ctx, loops, innermost)
    if session.on_gpu:
        ctx.runtime("runtime::grid_sync")


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

    return run_staged(generate, name="matvec")


@dataclass(frozen=True)
class MovementSummary:
    device_allocations: frozenset[str]
    copied_to_device: frozenset[str]
    copied_to_host: frozenset[str]


def movement_summary(program: SecondStageProgram) -> MovementSummary:
    """Static scan of an emitted benchmark: which tensors move where.

    Uses the naming manifest the session keeps on the program to map buffer
    variables back to tensor names.
    """
    tensors = program.meta.get("tensors")
    if tensors is None:
        raise EinsumError("program carries no tensor manifest")
    by_host = {info["host"]: name for name, info in tensors.items()}
    by_device = {info["device"]: name for name, info in tensors.items() if info["device"]}
    to_device: set[str] = set()
    to_host: set[str] = set()
    for stmt in iter_stmts(program.body):
        if isinstance(stmt, RuntimeCall):
            if stmt.name == "runtime::cudaMemcpyToDevice":
                to_device.add(by_device[stmt.args[0].name])
            elif stmt.name == "runtime::cudaMemcpyToHost":
                to_host.add(by_host[stmt.args[0].name])
    return MovementSummary(frozenset(by_device.values()), frozenset(to_device), frozenset(to_host))
