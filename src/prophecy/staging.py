"""Staged execution with prophecy cells corrected by rerun.

A *generator* is a host procedure that runs in the first stage and records a
second-stage program.  It may consult *prophecy cells*: lattice-valued slots
whose values predict facts about the rest of the generator's own execution.
Requiring an unsatisfied value merges it upward and aborts the run with
``MispredictionSignal``; the driver then discards the partial recording and
reruns the generator.  Cell values persist across reruns (identified by
creation order, which is why generators must be deterministic given the cell
contents), so each rerun starts better informed, and the bounded rank of
every lattice guarantees the loop ends in a clean run.  A cell handle
works only while its store holds its run's token, else ``StagingError``;
nothing refers back to what holds it (a tensor holds its einsum session
weakly), so reference counting frees each run as soon as it is dropped.

*History variables* are the complement: first-stage state about the past
execution, reset at the start of every run.  Inside ``if_else`` both branch
procedures are recorded in a single pass, each observing the pre-branch
history state (history effects of a branch body are branch-local).

First-stage values embedded in recorded expressions are frozen into
literals, specializing the second-stage program to this run's knowledge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

from .second_stage import (
    ArrayIndex,
    Assign,
    Binary,
    Declare,
    Expr,
    FloatLit,
    ForLoop,
    IfElse,
    IntLit,
    RuntimeCall,
    RuntimeCallExpr,
    SecondStageProgram,
    VarRef,
)


class StagingError(Exception):
    """Misuse of the staging runtime (not a misprediction)."""


class LatticeContractError(StagingError):
    """A lattice's merge/rank behavior violates its termination contract."""


class MispredictionSignal(Exception):
    """A prophecy requirement failed; aborts the current first-stage run.

    This is the designed control flow of the driver, not an error: the cell
    has already been merged upward when the signal is raised.
    """

    def __init__(self, event: MergeEvent):
        super().__init__(
            f"prophecy cell {event.cell_id} mispredicted: {event.old_value!r} lacked"
            f" {event.required!r}, merged to {event.new_value!r}"
        )
        self.event = event


class LatticeSpec(abc.ABC):
    """Value domain for a prophecy cell.

    ``merge`` is only invoked when ``satisfies`` failed and must return a
    value of the domain (``contains``) of strictly higher ``rank``; ranks are
    bounded by ``max_rank``.  Together these bound the number of reruns a
    cell can cause.
    """

    name: str = "lattice"
    max_rank: int = 1

    @abc.abstractmethod
    def satisfies(self, current: Any, required: Any) -> bool: ...

    @abc.abstractmethod
    def merge(self, current: Any, required: Any) -> Any: ...

    @abc.abstractmethod
    def rank(self, value: Any) -> int: ...

    def contains(self, value: Any) -> bool:
        """Domain membership; override to reject foreign values at require time."""
        return True


@dataclass
class _CellState:
    lattice: LatticeSpec
    initial: Any
    value: Any


@dataclass(frozen=True)
class MergeEvent:
    run: int
    cell_id: int
    name: str
    old_value: Any
    new_value: Any
    required: Any


class ProphecyStore:
    """Creation-order-keyed cell values that outlive individual runs."""

    def __init__(self) -> None:
        self.cells: list[_CellState] = []
        self.merge_log: list[MergeEvent] = []
        # the token of the latest StageContext made on this store: only its cell handles are valid
        self.current_run: object | None = None
        self.int_lits: dict[int, IntLit] = {}  # one node per int value in this build


class ProphecyCell:
    """Handle to one stored cell, valid while its run is the store's current run."""

    __slots__ = ("cell_id", "name", "_ctx")

    def __init__(self, cell_id: int, name: str, ctx: "StageContext"):
        self.cell_id = cell_id
        self.name = name
        self._ctx = ctx

    def _state(self) -> _CellState:
        store = self._ctx._store
        if store.current_run is not self._ctx._run:
            raise StagingError(f"handle of {self.name} belongs to a different run")
        return store.cells[self.cell_id]

    def get(self) -> Any:
        return self._state().value

    def require(self, required: Any) -> None:
        """Do nothing if the value satisfies ``required``; else merge, log and signal."""
        state = self._state()
        lattice = state.lattice
        if not lattice.contains(required):
            raise StagingError(f"{required!r} is not a value of lattice {lattice.name!r}")
        current = state.value
        if lattice.satisfies(current, required):
            return
        merged = lattice.merge(current, required)
        if not lattice.contains(merged):
            raise LatticeContractError(
                f"{lattice.name}: merge({current!r}, {required!r}) = {merged!r}"
                f" is not a value of the lattice"
            )
        old_rank = lattice.rank(current)
        new_rank = lattice.rank(merged)
        if merged == current or new_rank <= old_rank:
            raise LatticeContractError(
                f"{lattice.name}: merge({current!r}, {required!r}) = {merged!r}"
                f" did not strictly increase rank ({old_rank} -> {new_rank})"
            )
        if new_rank > lattice.max_rank:
            raise LatticeContractError(
                f"{lattice.name}: rank {new_rank} exceeds max_rank {lattice.max_rank}"
            )
        state.value = merged
        event = MergeEvent(self._ctx.run_index, self.cell_id, self.name, current, merged, required)
        self._ctx._store.merge_log.append(event)
        raise MispredictionSignal(event)


class HistoryVar:
    """First-stage state about the past run; reset at every rerun.

    Generators create these afresh each run (that is the reset).  Inside
    ``if_else`` their values are snapshotted so both branch recordings see
    the pre-branch state.
    """

    __slots__ = ("_value",)

    def __init__(self, ctx: "StageContext", initial: Any):
        self._value = initial
        ctx._history_vars.append(self)

    def get(self) -> Any:
        return self._value

    def set(self, value: Any) -> None:
        self._value = value


class StagedExpr:
    """Handle to a second-stage value; operators record expression trees."""

    __slots__ = ("node", "_ctx")

    def __init__(self, node: Expr, ctx: "StageContext"):
        self.node = node
        self._ctx = ctx

    def _bin(self, op: str, other: Any, reflected: bool = False) -> "StagedExpr":
        other_node = self._ctx._node(other)
        left, right = (other_node, self.node) if reflected else (self.node, other_node)
        return StagedExpr(Binary(op, left, right), self._ctx)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, reflected=True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, reflected=True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, reflected=True)

    def __mod__(self, other):
        return self._bin("%", other)

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    def __getitem__(self, index) -> "StagedExpr":
        return StagedExpr(ArrayIndex(self.node, self._ctx._node(index)), self._ctx)

    # without these, every handle is true and iterates through __getitem__ without end
    def __bool__(self):
        raise StagingError("a staged value has no first-stage truth; branch with ctx.if_else")

    def __iter__(self):
        raise StagingError("a staged value cannot be iterated; loop with ctx.for_loop")


@dataclass(frozen=True)
class StageStats:
    """Rerun accounting for one staged session: runs == merges + 1."""

    runs: int
    merge_log: tuple[MergeEvent, ...]

    def __post_init__(self) -> None:
        if self.runs != self.merges + 1:
            raise ValueError(f"inconsistent staging statistics: {self}")

    @property
    def merges(self) -> int:
        return len(self.merge_log)


class StageContext:
    """One first-stage run: prophecy access plus the statement recorder."""

    def __init__(self, store: ProphecyStore, run_index: int, name: str):
        self._run = store.current_run = object()  # a token: the store keeps no run alive
        self._store = store
        self._int_lits = store.int_lits
        self.run_index = run_index
        self._name = name
        self._next_cell_id = 0
        self._history_vars: list[HistoryVar] = []
        self._var_counter = 0
        self._param_counter = 0
        self._params: list[tuple[str, str]] = []
        self._root: list = []
        self._blocks: list[list] = [self._root]
        self.program_meta: dict = {}

    # -- prophecy cells ----------------------------------------------------

    def prophecy_cell(
        self, lattice: LatticeSpec, initial: Any, name: str | None = None
    ) -> ProphecyCell:
        """A handle to the next cell in creation order.

        ``name`` labels the cell's merges in the log; it defaults to ``cell <id>``.
        """
        cell_id = self._next_cell_id
        self._next_cell_id += 1
        if cell_id < len(self._store.cells):
            state = self._store.cells[cell_id]
            if state.lattice is not lattice and state.lattice.name != lattice.name:
                raise StagingError(
                    f"cell {cell_id} created with lattice {lattice.name!r} but an earlier"
                    f" run used {state.lattice.name!r}; generators must be deterministic"
                )
            if state.initial != initial:
                raise StagingError(
                    f"cell {cell_id} created with initial {initial!r} but an earlier run"
                    f" used {state.initial!r}; generators must be deterministic"
                )
        else:
            self._store.cells.append(_CellState(lattice, initial, initial))
        return ProphecyCell(cell_id, name or f"cell {cell_id}", self)

    # -- recording -----------------------------------------------------------

    def lift(self, value: Any) -> StagedExpr:
        """First-stage constants freeze into literals; handles pass through.

        What cannot be staged is refused in ``_node``, a literal C cannot
        hold by its node; equal ints share one ``IntLit`` within a build.
        """
        if type(value) is StagedExpr and value._ctx is self:
            return value
        return StagedExpr(self._node(value), self)

    def _node(self, value: Any) -> Expr:
        """The node ``lift(value)`` holds, without its handle; a node's refusal is a StagingError."""
        kind = type(value)
        if kind is StagedExpr and value._ctx is self:
            return value.node
        try:
            if kind is not int:
                if isinstance(value, StagedExpr):
                    raise StagingError("staged handle belongs to a different run")
                if isinstance(value, bool):
                    raise StagingError("no staged booleans; use int 0/1")
                if isinstance(value, float):
                    return FloatLit(value)
                if not isinstance(value, int):
                    raise StagingError(f"cannot stage a value of type {type(value).__name__}")
                value = int(value)  # an IntEnum, say, as a plain int
            if (node := self._int_lits.get(value)) is None:
                node = self._int_lits[value] = IntLit(value)
            return node
        except ValueError as exc:
            raise StagingError(str(exc)) from None

    def _fresh_var(self) -> str:
        name = f"var{self._var_counter}"
        self._var_counter += 1
        return name

    def _record(self, stmt) -> None:
        self._blocks[-1].append(stmt)

    def parameter(self, kind: str) -> StagedExpr:
        name = f"arg{self._param_counter}"
        self._param_counter += 1
        self._params.append((name, kind))
        return StagedExpr(VarRef(name), self)

    def declare(self, kind: str, init: Any) -> StagedExpr:
        name = self._fresh_var()
        self._record(Declare(name, kind, self._node(init)))
        return StagedExpr(VarRef(name), self)

    def assign(self, target: StagedExpr, value: Any) -> None:
        self._record(Assign(self._node(target), self._node(value)))

    def runtime(self, name: str, *args: Any) -> None:
        self._record(RuntimeCall(name, tuple(self._node(a) for a in args)))

    def runtime_expr(self, name: str, *args: Any) -> StagedExpr:
        return StagedExpr(RuntimeCallExpr(name, tuple(self._node(a) for a in args)), self)

    def for_loop(
        self,
        start: Any,
        bound: Any,
        step: Any,
        body: Callable[[StagedExpr], None],
    ) -> None:
        """Record ``for (int v = start; v < bound; v = v + step)`` around body.

        ``bound`` and ``step`` are Python ints, ``step`` at least 1 (see
        ``ForLoop``).  The body runs exactly once, receiving the loop
        variable handle, which exists only inside the loop; what it records
        lands inside the loop, whose block closes even if the body raises.
        """
        name = self._fresh_var()
        stmt = ForLoop(name, self._node(start), self._node(bound), self._node(step), [])
        self._record(stmt)
        self._record_block(stmt.body, body, StagedExpr(VarRef(name), self))

    def if_else(
        self,
        cond: Any,
        then_body: Callable[[], None],
        else_body: Callable[[], None] | None = None,
    ) -> None:
        """Record a second-stage conditional, running both branch procedures.

        Each branch records exactly once in this same pass, so prophecy
        requirements on every second-stage path are observed in one run.
        History-variable state is restored before the else branch and again
        at the join.
        """
        stmt = IfElse(self._node(cond), [], [] if else_body is not None else None)
        self._record(stmt)
        snapshot = [(var, var._value) for var in self._history_vars]
        for block, body in ((stmt.then_body, then_body), (stmt.else_body, else_body)):
            if body is not None:
                self._record_block(block, body)
                for var, value in snapshot:
                    var._value = value

    def _record_block(self, block: list, body: Callable, *args: Any) -> None:
        """Run ``body(*args)`` recording into ``block``; the block closes even if it raises."""
        self._blocks.append(block)
        try:
            body(*args)
        finally:
            self._blocks.pop()

    def finish(self) -> SecondStageProgram:
        if len(self._blocks) != 1:
            raise StagingError("recorder finished with an open block")
        return SecondStageProgram(
            self._name, tuple(self._params), self._root, meta=dict(self.program_meta)
        )


MAX_RUNS = 1000


def run_staged(
    generator: Callable[[StageContext], None], *, name: str = "generated"
) -> tuple[SecondStageProgram, StageStats]:
    """Rerun the generator until a run completes without mispredictions.

    The generator must be deterministic given identical prophecy store
    contents: cells are matched across runs by creation order.  On a
    misprediction the partial recording and all history state are discarded;
    merged cell values are retained.  The ``MAX_RUNS`` ceiling turns a
    broken (non-monotone) lattice into a diagnosable error instead of a
    hang; for well-formed lattices the store's rank headroom is the real
    bound.
    """
    store = ProphecyStore()
    for run_index in range(1, MAX_RUNS + 1):
        ctx = StageContext(store, run_index, name)
        try:
            generator(ctx)
        except MispredictionSignal:
            if len(store.merge_log) <= run_index:
                continue
        else:
            if len(store.merge_log) < run_index:
                return ctx.finish(), StageStats(run_index, tuple(store.merge_log))
        # a merge in this run was caught inside the generator
        cell = store.merge_log[run_index - 1].name
        raise StagingError(
            f"run {run_index} caught the misprediction of {cell};"
            " generators must let MispredictionSignal propagate"
        )
    raise StagingError(f"no clean run within {MAX_RUNS} attempts; check the lattice contract")
