import dataclasses
import enum
import re
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophecy import second_stage
from prophecy.einsum import build_matmul_benchmark, build_matvec_benchmark
from prophecy.interp import interpret_program
from prophecy.nn import build_conv_relu_benchmark
from prophecy.second_stage import (
    RUNTIME_CALLS,
    RuntimeCall,
    RuntimeCallExpr,
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


# Each records ``value`` at one entry point of the recorder, beside a float* and an int handle.
ENTRY_POINTS = {
    "declare": lambda ctx, buf, n, value: ctx.declare("int", value),
    "assign target": lambda ctx, buf, n, value: ctx.assign(value, 1),
    "assign value": lambda ctx, buf, n, value: ctx.assign(n, value),
    "for_loop start": lambda ctx, buf, n, value: ctx.for_loop(value, 4, 1, lambda i: None),
    "runtime": lambda ctx, buf, n, value: ctx.runtime("runtime::memcpy", buf, buf, value),
    "runtime_expr": lambda ctx, buf, n, value: ctx.runtime_expr("runtime::malloc", value),
    "if_else": lambda ctx, buf, n, value: ctx.if_else(value, lambda: None),
    "h + x": lambda ctx, buf, n, value: n + value,
    "x + h": lambda ctx, buf, n, value: value + n,
    "h[x]": lambda ctx, buf, n, value: buf[value],
}

UNSTAGEABLE = {
    "bool": True,
    "inf": float("inf"),
    "nan": float("nan"),
    "str": "1",
    "unprintable int": 10 ** sys.get_int_max_str_digits(),  # one digit over the limit
    "2**31": 2**31,
    "1e39": 1e39,
}


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
            n = 4
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
        # refused at C's int, so an int too long for Python to print is refused without printing
        ctx = fresh_ctx()
        n = ctx.declare("int", 1)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(StagingError, match="^integer literal is outside C's int$"):
            ctx.assign(n, n % 10 ** (limit + 1))
        ctx.assign(n, n % (2**31 - 1))  # C's largest int: still recorded
        assert "var0 = var0 % 2147483647;" in emit_c(ctx.finish())

    def test_int_subclass_freezes_to_a_plain_int_literal(self):
        # an int literal holds only an int, so the recorder stages an IntEnum's value
        class Row(enum.IntEnum):
            SECOND = 1

        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        ctx.assign(buf[Row.SECOND], 1.0)
        assert "arg0[1] = 1.0;" in emit_c(ctx.finish())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_literal_rejected(self, value):
        ctx = fresh_ctx()
        x = ctx.declare("float", 1.0)
        with pytest.raises(StagingError, match="is not finite"):
            ctx.assign(x, x * value)
        with pytest.raises(StagingError, match="is not finite"):
            ctx.declare("float", value)
        text = emit_c(ctx.finish())
        assert "inf" not in text and "nan" not in text

    def test_first_stage_loop_unrolls(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        for i in range(3):
            ctx.assign(buf[i], float(i))
        prog = ctx.finish()
        assert len(prog.body) == 3

    def test_staged_value_has_no_first_stage_truth(self):
        # both used to be True, so a generator's `if x < t:` silently took one branch
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        for cond in (buf[0] < 1.0, buf[0] > 1.0, ctx.declare("int", 0)):
            with pytest.raises(StagingError, match="ctx.if_else"):
                bool(cond)
        with pytest.raises(StagingError, match="ctx.if_else"):
            ctx.assign(buf[0], 1.0) if buf[0] < 1.0 else None

    def test_staged_value_is_not_iterable(self):
        # it used to yield buf[0], buf[1], ... without end, so list(buf) never returned
        buf = fresh_ctx().parameter("float*")
        with pytest.raises(StagingError, match="ctx.for_loop"):
            next(iter(buf))
        with pytest.raises(StagingError, match="ctx.for_loop"):
            a, b = buf

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

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_stale_handle_rejected_at_every_entry_point(self, entry):
        leaked = []

        def generator(ctx):
            cell = ctx.prophecy_cell(FLAG, Flag.UNSET)
            buf, n = ctx.parameter("float*"), ctx.parameter("int")
            handle = ctx.declare("int", 0)
            if ctx.run_index == 1:
                leaked.append(handle)
                cell.require(Flag.SET)
            else:
                with pytest.raises(StagingError, match="^staged handle belongs to a different run$"):
                    ENTRY_POINTS[entry](ctx, buf, n, leaked[0])
                ctx.assign(handle, 1)

        program, stats = run_staged(generator)
        assert stats.runs == 2 and len(program.body) == 2  # nothing of the refused recording

    @pytest.mark.parametrize("value", sorted(UNSTAGEABLE))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_refuses_what_lift_refuses(self, entry, value):
        ctx = fresh_ctx()
        with pytest.raises(StagingError) as lifted:
            ctx.lift(UNSTAGEABLE[value])
        buf, n = ctx.parameter("float*"), ctx.parameter("int")
        with pytest.raises(StagingError, match=f"^{re.escape(str(lifted.value))}$"):
            ENTRY_POINTS[entry](ctx, buf, n, UNSTAGEABLE[value])
        assert ctx._root == []

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_int_enum_records_as_a_plain_int_at_every_entry_point(self, entry):
        class Row(enum.IntEnum):
            SECOND = 1

        recorded = []
        for value in (Row.SECOND, 1):
            ctx = fresh_ctx()
            buf, n = ctx.parameter("float*"), ctx.parameter("int")
            try:
                result = ENTRY_POINTS[entry](ctx, buf, n, value)
            except ValueError as exc:  # an int literal is no assignment target
                result = exc
            recorded.append(repr((getattr(result, "node", result), ctx._root)))
        assert recorded[0] == recorded[1]

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


class TestLiteralsHoldWhatCHolds:
    """An int literal holds a C ``int``, a float literal a finite C ``float``; the recorder
    refuses the rest with the node's message."""

    REFUSED = [
        (second_stage.IntLit, 2**31, "integer literal is outside C's int"),
        (second_stage.IntLit, -2**31 - 1, "integer literal is outside C's int"),
        (second_stage.FloatLit, float("inf"), "float literal inf is not finite"),
        (second_stage.FloatLit, float("-inf"), "float literal -inf is not finite"),
        (second_stage.FloatLit, float("nan"), "float literal nan is not finite"),
        (second_stage.FloatLit, 1e39, "float literal 1e+39 is outside C's float"),
        (second_stage.FloatLit, -1e39, "float literal -1e+39 is outside C's float"),
        # the least double that rounds to inf in float32: 2**128 - 2**103
        (second_stage.FloatLit, 3.4028235677973366e38,
         "float literal 3.4028235677973366e+38 is outside C's float"),
    ]

    @pytest.mark.parametrize("node, value, message", REFUSED)
    def test_node_refuses_what_c_cannot_hold(self, node, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            node(value)
        if node is second_stage.FloatLit:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(np.float32(value))

    @pytest.mark.parametrize("node, value, message", REFUSED)
    def test_recorder_refuses_with_the_nodes_message(self, node, value, message):
        # UNSTAGEABLE shows that every entry point refuses as lift does
        ctx = fresh_ctx()
        with pytest.raises(StagingError, match=f"^{re.escape(message)}$"):
            ctx.lift(value)

    @pytest.mark.parametrize("node, value", [
        (second_stage.IntLit, 2**31 - 1),
        (second_stage.IntLit, -2**31),
        (second_stage.FloatLit, 3.4028235e38),
        (second_stage.FloatLit, 3.4028235677973362e38),
        (second_stage.FloatLit, -3.4028235677973362e38),
    ])
    def test_node_holds_c_extremes(self, node, value):
        assert node(value).value == value
        if node is second_stage.FloatLit:  # the next double past 3.4028235677973362e38 is refused
            assert np.isfinite(np.float32(value))
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], value)
        text = "(-2147483647 - 1)" if value == -2**31 else repr(value)  # C has no literal -2**31
        assert f"arg0[0] = {text};" in emit_c(ctx.finish())

    @pytest.mark.parametrize("value", [np.float64(1.5), 1])
    def test_float_literal_holds_only_a_float(self, value):
        # as an int literal holds only an int (tests/test_interp.py)
        with pytest.raises(ValueError, match=f"^float literal is not a float: {re.escape(repr(value))}$"):
            second_stage.FloatLit(value)

    def test_float_subclass_is_staged_as_a_plain_float(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        ctx.assign(buf[0], np.float64(1.5))
        (stmt,) = ctx._root
        assert type(stmt.value.value) is float
        assert "  arg0[0] = 1.5;\n" in emit_c(ctx.finish())

    def test_loop_start_outside_c_int_refused_when_recorded(self):
        # C's int cannot count from -10**15; the program is never built, let alone run
        ctx = fresh_ctx()
        with pytest.raises(StagingError, match="^integer literal is outside C's int$"):
            ctx.for_loop(-10**15, 1, 1, lambda i: None)
        assert ctx._root == []


class TestIntLiteralSharing:
    """Equal ints share one ``IntLit`` within a build; sharing must not change a program."""

    def test_equal_ints_share_one_literal(self):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        first, second = buf[10**6], buf[int("1000000")]  # equal, but two int objects
        ctx.for_loop(10**6, 10**7, 10**6, lambda i: None)
        loop = ctx._root[0]
        assert first.node.index is second.node.index is loop.start is loop.step
        assert ctx.lift(10**6).node is loop.start and loop.bound.value == 10**7

    @pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1)])
    def test_an_int_and_an_equal_float_stay_apart(self, first, second):
        # 1 == 1.0 and both hash alike, so one dict keyed by value would confuse them
        ctx = fresh_ctx()
        x = ctx.parameter("float")
        ctx.assign(x, x * first)
        ctx.assign(x, x * second)
        literal = {int: second_stage.IntLit, float: second_stage.FloatLit}
        assert [stmt.value.right for stmt in ctx._root] == [
            literal[type(v)](v) for v in (first, second)]
        text = emit_c(ctx.finish())
        assert f"  arg0 = arg0 * {first};\n  arg0 = arg0 * {second};\n" in text

    def test_builds_share_no_literal(self):
        def generator(ctx):
            buf = ctx.parameter("float*")
            ctx.assign(buf[2], 1.0)

        (first, _), (second, _) = run_staged(generator), run_staged(generator)
        assert first.body[0].target.index == second.body[0].target.index
        assert first.body[0].target.index is not second.body[0].target.index


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
        n = 2

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

void t(float* arg0) {
  for (int var0 = 0; var0 < 2; var0 = var0 + 1) {
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

    def test_loop_with_compound_bound_and_step(self):
        ctx = fresh_ctx()
        n = ctx.parameter("int")
        buf = ctx.parameter("float*")
        # the start may be staged; the bound and step are int literals (see ForLoop)
        ctx.for_loop(n % 2, 4, 3, lambda i: ctx.assign(buf[i], 1.0))
        program = ctx.finish()
        assert "\n  for (int var0 = arg0 % 2; var0 < 4; var0 = var0 + 3) {\n" in emit_c(program)
        # arg0 = 3: var0 runs from 1 while below 4, by 3, so only buf[1] is written
        out = interpret_program(program, {"arg0": 3, "arg1": np.zeros(4, np.float32)})
        assert out["arg1"].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_declare_with_allocation(self):
        ctx = fresh_ctx()
        ctx.declare("float*", ctx.runtime_expr("runtime::malloc", 64))
        text = emit_c(ctx.finish())
        assert "float* var0 = runtime::malloc(64);" in text

    def test_unknown_runtime_call_rejected(self):
        with pytest.raises(UnknownRuntimeCall):
            RuntimeCall("runtime::launch_missiles", ())
        ctx = fresh_ctx()
        with pytest.raises(UnknownRuntimeCall):
            ctx.runtime("runtime::start_time")
        with pytest.raises(UnknownRuntimeCall):  # no DSL recorded it, so it was removed
            RuntimeCall("runtime::free", ())
        with pytest.raises(UnknownRuntimeCall):
            ctx.runtime("runtime::free", ctx.parameter("float*"))

    @pytest.mark.parametrize("call, message", [
        (lambda ctx, buf: ctx.runtime("runtime::memcpy", buf),
         "runtime call runtime::memcpy takes 3 arguments, got 1"),
        (lambda ctx, buf: ctx.runtime("runtime::cudaMemcpyToHost", buf, buf, 4, 4),
         "runtime call runtime::cudaMemcpyToHost takes 3 arguments, got 4"),
        (lambda ctx, buf: ctx.runtime("runtime::grid_sync", buf),
         "runtime call runtime::grid_sync takes 0 arguments, got 1"),
        (lambda ctx, buf: ctx.runtime_expr("runtime::malloc"),
         "runtime call runtime::malloc takes 1 arguments, got 0"),
        (lambda ctx, buf: ctx.runtime_expr("runtime::cuda_malloc", 16, 16),
         "runtime call runtime::cuda_malloc takes 1 arguments, got 2"),
        (lambda ctx, buf: ctx.runtime("runtime::malloc", 16),
         "runtime call runtime::malloc is not a statement"),
        (lambda ctx, buf: ctx.declare("float*", ctx.runtime_expr("runtime::memcpy", buf, buf, 4)),
         "runtime call runtime::memcpy does not produce a value"),
        (lambda ctx, buf: ctx.runtime_expr("runtime::grid_sync"),
         "runtime call runtime::grid_sync does not produce a value"),
    ])
    def test_runtime_calls_take_their_c_signatures(self, call, message):
        # g++ refuses each against tests/data/runtime.h but an allocation as a statement
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ctx, buf)
        assert RUNTIME_CALLS["runtime::memcpy"] == (3, False)

    @pytest.mark.parametrize("kind", ["int*", "float**", "double", "void", "float *"])
    def test_variables_are_int_float_or_float_pointer(self, kind):
        ctx = fresh_ctx()
        buf = ctx.parameter("float*")
        with pytest.raises(ValueError, match=f"^variable var0 has kind {re.escape(repr(kind))}, "
                                             "not int, float or float\\*$"):
            ctx.declare(kind, buf)
        ctx.parameter(kind)
        with pytest.raises(ValueError, match=f"^variable arg1 has kind {re.escape(repr(kind))}"):
            ctx.finish()
        with pytest.raises(ValueError, match="^variable p has kind"):
            SecondStageProgram("p", (("p", kind),), [])

    def test_registry_is_the_public_surface(self):
        assert set(RUNTIME_CALLS) == {
            "runtime::malloc",
            "runtime::memcpy",
            "runtime::cuda_malloc",
            "runtime::cudaMemcpyToDevice",
            "runtime::cudaMemcpyToHost",
            "runtime::grid_sync",
        }
        # every runtime call and node class is one that a pinned build records
        kinds, calls = set(), set()

        def walk(node):
            kinds.add(type(node))
            if isinstance(node, (RuntimeCall, RuntimeCallExpr)):
                calls.add(node.name)
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                for child in value if isinstance(value, (list, tuple)) else [value]:
                    if dataclasses.is_dataclass(child):
                        walk(child)

        for strategy in ("prophecy", "copy_all", "unified"):
            for stmt in build_matmul_benchmark(5, 3, 6, strategy, max_bid=2, max_tid=3)[0].body:
                walk(stmt)
            for stmt in build_matvec_benchmark(7, 5, strategy, max_bid=3, max_tid=2)[0].body:
                walk(stmt)
        for fusion in (True, False):
            for stmt in build_conv_relu_benchmark(24, 5, fusion=fusion)[0].body:
                walk(stmt)
        assert calls == set(RUNTIME_CALLS)
        assert kinds == {*typing.get_args(second_stage.Expr), *typing.get_args(second_stage.Stmt)}


class TestDeepNesting:
    """A program nested deeper than the type walk can follow is refused with a ``ValueError``
    naming the nesting, never a bare ``RecursionError``; one just short of that still builds,
    emits and interprets."""

    @staticmethod
    def deep_sum(depth):
        def generator(ctx):
            param = value = ctx.parameter("int")
            for _ in range(depth):
                value = value + 1
            ctx.assign(param, ctx.declare("int", value))

        return generator

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_too_deep_is_refused_by_run_staged(self, depth):
        with pytest.raises(ValueError, match="^program deep is nested too deeply for the type walk$"):
            run_staged(self.deep_sum(depth), name="deep")

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_too_deep_is_refused_by_a_hand_built_program(self, depth):
        value = second_stage.VarRef("arg0")
        for _ in range(depth):
            value = second_stage.Binary("+", value, second_stage.IntLit(1))
        with pytest.raises(ValueError, match="^program deep is nested too deeply for the type walk$"):
            SecondStageProgram("deep", (("arg0", "int"),), [second_stage.Declare("var0", "int", value)])

    def test_just_short_of_it_builds_emits_and_interprets(self):
        program, _ = run_staged(self.deep_sum(950), name="deep")
        assert emit_c(program).count(" + 1") == 950
        assert interpret_program(program, {"arg0": 3}) == {"arg0": 953}
