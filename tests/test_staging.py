import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophecy.second_stage import (
    RUNTIME_CALLS,
    RuntimeCall,
    SecondStageProgram,
    UnknownRuntimeCall,
    emit_c,
    iter_stmts,
)
from prophecy.staging import (
    HistoryVar,
    LatticeContractError,
    LatticeSpec,
    MispredictionSignal,
    ProphecyStore,
    StageContext,
    StageStats,
    StagingError,
    run_staged,
)


class Flag(LatticeSpec):
    """Two-point chain: UNSET below SET."""

    name = "flag"
    max_rank = 1
    UNSET = "unset"
    SET = "set"

    def satisfies(self, current, required):
        return required == self.UNSET or current == self.SET

    def merge(self, current, required):
        return self.SET

    def rank(self, value):
        return 0 if value == self.UNSET else 1


class BrokenLattice(Flag):
    name = "broken"

    def merge(self, current, required):
        return current  # never makes progress


FLAG = Flag()


def fresh_ctx():
    return StageContext(ProphecyStore(), run_index=1, name="t")


class TestProphecyCells:
    def test_fresh_cell_returns_initializer(self):
        ctx = fresh_ctx()
        cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
        assert cell.get() == Flag.UNSET

    def test_satisfied_require_is_silent(self):
        ctx = fresh_ctx()
        cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
        cell.require(Flag.UNSET)
        assert cell.get() == Flag.UNSET

    def test_failed_require_merges_and_signals(self):
        store = ProphecyStore()
        ctx = StageContext(store, 1, "t")
        cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
        with pytest.raises(MispredictionSignal):
            cell.require(Flag.SET)
        assert store.cells[0].value == Flag.SET

    def test_merge_carries_the_cell_name(self):
        store = ProphecyStore()
        ctx = StageContext(store, 1, "t")
        unnamed = ctx.prophecy_cell(FLAG, Flag.UNSET)
        named = ctx.prophecy_cell(FLAG, Flag.UNSET, name="flag[a]")
        for cell in (unnamed, named):
            with pytest.raises(MispredictionSignal):
                cell.require(Flag.SET)
        assert [event.name for event in store.merge_log] == ["cell 0", "flag[a]"]

    def test_value_persists_into_next_run(self):
        store = ProphecyStore()
        ctx1 = StageContext(store, 1, "t")
        cell1 = ctx1.prophecy_cell(FLAG, Flag.UNSET)
        with pytest.raises(MispredictionSignal):
            cell1.require(Flag.SET)
        ctx2 = StageContext(store, 2, "t")
        cell2 = ctx2.prophecy_cell(FLAG, Flag.UNSET)
        assert cell2.get() == Flag.SET
        cell2.require(Flag.SET)  # satisfied now

    def test_creation_order_divergence_is_detected(self):
        store = ProphecyStore()
        ctx1 = StageContext(store, 1, "t")
        ctx1.prophecy_cell(FLAG, Flag.UNSET)
        ctx2 = StageContext(store, 2, "t")
        with pytest.raises(StagingError, match="deterministic"):
            ctx2.prophecy_cell(FLAG, Flag.SET)

    def test_broken_lattice_is_diagnosed(self):
        ctx = fresh_ctx()
        cell = ctx.prophecy_cell(BrokenLattice(), Flag.UNSET)
        with pytest.raises(LatticeContractError):
            cell.require(Flag.SET)

    def test_domain_mismatch_is_an_error(self):
        class Closed(Flag):
            name = "closed"

            def contains(self, value):
                return value in (self.UNSET, self.SET)

        ctx = fresh_ctx()
        cell = ctx.prophecy_cell(Closed(), Flag.UNSET)
        with pytest.raises(StagingError, match="not a value of lattice"):
            cell.require("sideways")

    def test_stale_handle_rejected_in_next_run(self):
        store = ProphecyStore()
        ctx1 = StageContext(store, 1, "t")
        cell = ctx1.prophecy_cell(FLAG, Flag.UNSET)
        ctx2 = StageContext(store, 2, "t")
        ctx2.prophecy_cell(FLAG, Flag.UNSET)
        with pytest.raises(StagingError):
            cell.get()

    def test_handle_kept_from_run_one_is_rejected_in_run_two(self):
        store = ProphecyStore()
        leaked = StageContext(store, 1, "t").prophecy_cell(FLAG, Flag.UNSET, name="flag[a]")
        fresh = StageContext(store, 2, "t").prophecy_cell(FLAG, Flag.UNSET, name="flag[a]")
        for use in (leaked.get, lambda: leaked.require(Flag.SET)):
            with pytest.raises(StagingError, match="flag\\[a\\] belongs to a different run"):
                use()
        assert store.merge_log == []
        assert store.cells[0].value == Flag.UNSET
        assert fresh.get() == Flag.UNSET

    def test_signal_carries_its_merge_event(self):
        store = ProphecyStore()
        cell = StageContext(store, 1, "t").prophecy_cell(FLAG, Flag.UNSET)
        with pytest.raises(MispredictionSignal) as signal:
            cell.require(Flag.SET)
        assert signal.value.event is store.merge_log[0]
        assert str(signal.value) == "prophecy cell 0 mispredicted: 'unset' lacked 'set', merged to 'set'"


class Chain(LatticeSpec):
    """The chain 0 < 1 < ... < max_rank, optionally broken by one flaw.

    ``stalls``: merge does not increase the rank.  ``rank_overflow``: a merged
    value ranks above max_rank.  ``foreign_merge``: merge leaves the domain
    (with a rank that looks fine).  ``never_satisfied``: satisfies never holds.
    """

    name = "chain"

    def __init__(self, max_rank, flaw, amount):
        self.max_rank = max_rank
        self.flaw = flaw
        self.amount = amount

    def contains(self, value):
        return isinstance(value, int) and 0 <= value <= self.max_rank

    def satisfies(self, current, required):
        return self.flaw != "never_satisfied" and current >= required

    def merge(self, current, required):
        if self.flaw == "stalls":
            return current - self.amount
        if self.flaw == "foreign_merge":
            return ("foreign", current)
        return max(current, required)

    def rank(self, value):
        if isinstance(value, tuple):
            return value[1] + 1
        if self.flaw == "rank_overflow" and value > 0:
            return value + self.max_rank
        return value


FLAWS = ["stalls", "rank_overflow", "foreign_merge", "never_satisfied", "foreign_required"]


@given(
    st.sampled_from(FLAWS + [None]),
    st.integers(1, 4),
    st.integers(0, 3),
    st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_broken_lattice_contract_is_diagnosed(flaw, max_rank, amount, requirements):
    """A broken lattice ends in a contract or staging error well before ``staging.MAX_RUNS``."""
    lattice = Chain(max_rank, flaw, amount)
    runs = []

    def generator(ctx):
        runs.append(ctx.run_index)
        for wanted in requirements:
            cell = ctx.prophecy_cell(lattice, 0)
            for value in wanted:
                foreign = flaw == "foreign_required"
                cell.require(max_rank + value if foreign else min(value, max_rank))

    bound = 1 + len(requirements) * max_rank
    if flaw is None:
        _, stats = run_staged(generator)
        assert stats.runs <= bound
        return
    with pytest.raises(StagingError) as excinfo:
        run_staged(generator)
    assert "no clean run" not in str(excinfo.value)
    assert len(runs) <= bound
    if flaw == "foreign_required":
        assert "not a value of lattice" in str(excinfo.value)
    else:
        assert isinstance(excinfo.value, LatticeContractError)


class TestRunStaged:
    def test_one_misprediction_two_runs(self):
        seen = []

        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            seen.append(cell.get())
            out = ctx.parameter("float*")
            if cell.get() == Flag.SET:
                ctx.assign(out[0], 1.0)
            cell.require(Flag.SET)

        program, stats = run_staged(generator)
        assert stats.runs == 2
        assert stats.merges == 1
        assert seen == [Flag.UNSET, Flag.SET]
        assert len(program.body) == 1  # corrected value reflected in recording

    @pytest.mark.parametrize("then_raise", [False, True])
    def test_caught_misprediction_is_an_error(self, then_raise):
        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET, name="flag[a]")
            try:
                cell.require(Flag.SET)
            except Exception:  # noqa: BLE001 - the misuse under test
                pass
            if then_raise:
                ctx.prophecy_cell(FLAG, Flag.UNSET).require(Flag.SET)

        with pytest.raises(StagingError, match="run 1 caught the misprediction of flag\\[a\\]"):
            run_staged(generator)

    def test_no_cells_single_run(self):
        def generator(ctx):
            ctx.declare("int", 0)

        _, stats = run_staged(generator)
        assert stats.runs == 1
        assert stats.merges == 0

    def test_cell_ids_stable_across_runs(self):
        ids = []

        def generator(ctx):
            a = ctx.prophecy_cell(FLAG, Flag.UNSET)
            b = ctx.prophecy_cell(FLAG, Flag.UNSET)
            ids.append((a.cell_id, b.cell_id))
            if ctx.run_index == 1:
                a.require(Flag.SET)

        run_staged(generator)
        assert ids == [(0, 1), (0, 1)]

    def test_runs_bounded_by_rank_headroom(self):
        def generator(ctx):
            cells = [ctx.prophecy_cell(FLAG, Flag.UNSET) for _ in range(3)]
            for cell in cells:
                cell.require(Flag.SET)

        _, stats = run_staged(generator)
        assert stats.runs == 4  # 3 merges of a height-1 chain, then a clean run
        assert stats.runs <= 1 + 3 * FLAG.max_rank

    def test_generator_errors_propagate(self):
        def generator(ctx):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_staged(generator)

    def test_run_ceiling_guards_nontermination(self):
        class Sneaky(Flag):
            name = "sneaky"
            max_rank = 10**9

            def rank(self, value):
                return 0 if value == self.UNSET else self._counter()

            _count = [0]

            def _counter(self):
                self._count[0] += 1
                return self._count[0]

            def satisfies(self, current, required):
                return False

            def merge(self, current, required):
                return f"v{self._count[0]}"

        def generator(ctx, lattice=Sneaky()):
            cell = ctx.prophecy_cell(lattice, Flag.UNSET)
            cell.require(Flag.SET)

        with pytest.raises(StagingError, match="no clean run within"):
            run_staged(generator)

    def test_persistence_asymmetry_across_reruns(self):
        observed = []

        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            hist = HistoryVar(ctx, "initial")
            observed.append((ctx.run_index, cell.get(), hist.get()))
            hist.set("dirty")
            if ctx.run_index == 1:
                cell.require(Flag.SET)

        run_staged(generator)
        # the cell's merged value survives the rerun; the history var restarts
        assert observed == [(1, Flag.UNSET, "initial"), (2, Flag.SET, "initial")]

    def test_reproducible_emission_and_stats(self):
        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            buf = ctx.parameter("float*")
            n = ctx.declare("int", 4)
            if cell.get() == Flag.UNSET:
                cell.require(Flag.SET)
            ctx.for_loop(0, n, 1, lambda i: ctx.assign(buf[i], i * 2))

        prog1, stats1 = run_staged(generator)
        prog2, stats2 = run_staged(generator)
        assert emit_c(prog1) == emit_c(prog2)
        assert stats1.runs == stats2.runs == 2
        assert stats1.merge_log == stats2.merge_log

    def test_stats_reject_runs_without_a_merge_each(self):
        with pytest.raises(ValueError, match="inconsistent"):
            StageStats(runs=3, merge_log=())


class TestRecording:
    def test_expression_tree_with_frozen_constant(self):
        ctx = fresh_ctx()
        a = ctx.declare("int", 1)
        b = ctx.declare("int", 2)
        d = ctx.declare("int", a + b * 2)
        prog = ctx.finish()
        text = emit_c(prog)
        assert "int var2 = var0 + (var1 * 2);" in text

    def test_unprintable_int_literal_rejected(self):
        ctx = fresh_ctx()
        n = ctx.declare("int", 1)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(StagingError, match=f"more than {limit} digits"):
            ctx.assign(n, n % 10 ** (limit + 1))
        ctx.assign(n, n % 10 ** (limit - 1))  # limit digits: still printable
        assert str(10 ** (limit - 1)) in emit_c(ctx.finish())

    def test_first_stage_loop_unrolls(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        for i in range(3):
            ctx.assign(buf[i], float(i))
        prog = ctx.finish()
        assert len(prog.body) == 3

    def test_both_branches_observed_in_one_recording(self):
        observed = []

        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            flag = ctx.parameter("int")

            def then():
                observed.append(("then", ctx.run_index))
                if ctx.run_index > 10:  # never: keep branches side-effect free
                    cell.require(Flag.SET)

            def els():
                observed.append(("else", ctx.run_index))

            ctx.if_else(flag, then, els)

        run_staged(generator)
        assert observed == [("then", 1), ("else", 1)]

    def test_history_restored_between_branches_and_at_join(self):
        states = []

        def generator(ctx):
            hist = HistoryVar(ctx, "start")
            flag = ctx.parameter("int")

            def then():
                states.append(hist.get())
                hist.set("then-touched")

            def els():
                states.append(hist.get())
                hist.set("else-touched")

            ctx.if_else(flag, then, els)
            states.append(hist.get())

        run_staged(generator)
        assert states == ["start", "start", "start"]

    def test_stale_handle_from_aborted_run_rejected(self):
        leaked = []

        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            handle = ctx.declare("int", 0)
            if ctx.run_index == 1:
                leaked.append(handle)
                cell.require(Flag.SET)
            else:
                with pytest.raises(StagingError, match="different run"):
                    ctx.assign(leaked[0], 1)
                ctx.assign(handle, 1)

        run_staged(generator)

    @pytest.mark.parametrize("record", ["loop", "branch"])
    def test_block_closes_when_its_body_raises(self, record):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")

        def body(*_):
            ctx.assign(buf[0], 1.0)
            raise ValueError("body failed")

        with pytest.raises(ValueError, match="body failed"):
            if record == "loop":
                ctx.for_loop(0, 4, 1, body)
            else:
                ctx.if_else(1, body)
        ctx.assign(buf[1], 2.0)  # lands after the block, not inside it
        text = emit_c(ctx.finish())
        assert text.index("}\n  arg0[1] = 2.0;") > text.index("arg0[0] = 1.0;")

    def test_unbalanced_recorder_is_an_error(self):
        ctx = fresh_ctx()
        ctx._blocks.append([])
        with pytest.raises(StagingError, match="open block"):
            ctx.finish()


class TestEmission:
    def test_iter_stmts_walks_every_block_in_program_order(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], 0.0)

        def body(i):
            ctx.if_else(i, lambda: ctx.assign(buf[1], 1.0), lambda: ctx.assign(buf[2], 2.0))

        ctx.for_loop(0, 2, 1, body)
        ctx.assign(buf[3], 3.0)
        walked = list(iter_stmts(ctx.finish().body))
        assert [type(stmt).__name__ for stmt in walked] == [
            "Assign", "ForLoop", "IfElse", "Assign", "Assign", "Assign",
        ]
        assert [s.target.index.value for s in walked if hasattr(s, "target")] == [0, 1, 2, 3]

    def test_empty_program(self):
        prog = SecondStageProgram("empty", (), [])
        assert emit_c(prog) == '#include "runtime.h"\n\nvoid empty(void) {\n}\n'

    def test_nested_blocks_golden(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        n = ctx.parameter("int")

        def outer(i):
            def inner(j):
                ctx.if_else(
                    (i + j) % 2,
                    lambda: ctx.assign(buf[i * 4 + j], 1.0),
                    lambda: ctx.assign(buf[i * 4 + j], 0.0),
                )

            ctx.for_loop(0, 4, 1, inner)

        ctx.for_loop(0, n, 1, outer)
        ctx.runtime("runtime::grid_sync")
        golden = """#include "runtime.h"

void t(float* arg0, int arg1) {
  for (int var0 = 0; var0 < arg1; var0 = var0 + 1) {
    for (int var1 = 0; var1 < 4; var1 = var1 + 1) {
      if ((var0 + var1) % 2) {
        arg0[(var0 * 4) + var1] = 1.0;
      } else {
        arg0[(var0 * 4) + var1] = 0.0;
      }
    }
  }
  runtime::grid_sync();
}
"""
        assert emit_c(ctx.finish()) == golden

    def test_declare_with_allocation(self):
        ctx = fresh_ctx()
        buf = ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 64))
        ctx.runtime("runtime::free", buf)
        text = emit_c(ctx.finish())
        assert "float* var0 = runtime::malloc(64);" in text
        assert "runtime::free(var0);" in text

    def test_unknown_runtime_call_rejected(self):
        with pytest.raises(UnknownRuntimeCall):
            RuntimeCall("runtime::launch_missiles", ())
        ctx = fresh_ctx()
        with pytest.raises(UnknownRuntimeCall):
            ctx.runtime("runtime::start_time")

    def test_registry_is_the_public_surface(self):
        assert set(RUNTIME_CALLS) == {
            "runtime::malloc",
            "runtime::free",
            "runtime::memcpy",
            "runtime::cuda_malloc",
            "runtime::cudaMemcpyToDevice",
            "runtime::cudaMemcpyToHost",
            "runtime::grid_sync",
        }
