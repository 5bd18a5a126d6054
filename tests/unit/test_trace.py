"""Unit tests for trace ops and containers."""

import pytest

from repro.common.errors import AddressError, TransactionError
from repro.trace.ops import Load, Store, TxBegin, TxEnd
from repro.trace.trace import ThreadTrace, Trace, Transaction


class TestOps:
    def test_store_requires_word_alignment(self):
        Store(0x1008, 1)
        with pytest.raises(AddressError):
            Store(0x1001, 1)

    def test_load_requires_word_alignment(self):
        Load(0x1000)
        with pytest.raises(AddressError):
            Load(0x1004)

    def test_equality_and_hash(self):
        assert Store(8, 1) == Store(8, 1)
        assert Store(8, 1) != Store(8, 2)
        assert Load(8) == Load(8)
        assert TxBegin() == TxBegin()
        assert TxEnd() == TxEnd()
        assert TxBegin() != TxEnd()
        assert len({Store(8, 1), Store(8, 1), Load(8)}) == 2

    def test_reprs(self):
        assert "Store" in repr(Store(8, 1))
        assert "Load" in repr(Load(8))


class TestTransaction:
    def test_builder_chains(self):
        tx = Transaction().store(0x1000, 1).load(0x1008).store(0x1000, 2)
        assert len(tx) == 3
        assert len(tx.stores) == 2

    def test_write_size_counts_all_stores(self):
        tx = Transaction().store(0x1000, 1).store(0x1000, 2)
        assert tx.write_size_bytes == 16

    def test_distinct_words_and_lines(self):
        tx = (
            Transaction()
            .store(0x1000, 1)
            .store(0x1000, 2)
            .store(0x1008, 3)
            .store(0x2000, 4)
        )
        assert tx.distinct_words() == 3
        assert tx.distinct_lines() == 2

    def test_final_values_last_write_wins(self):
        tx = Transaction().store(0x1000, 1).store(0x1000, 2)
        assert tx.final_values() == {0x1000: 2}

    def test_repr(self):
        assert "2 ops" in repr(Transaction().store(8, 1).load(16))


class TestThreadTrace:
    def test_tid_fits_8_bits(self):
        ThreadTrace(255)
        with pytest.raises(TransactionError):
            ThreadTrace(256)

    def test_append_and_iter(self):
        thread = ThreadTrace(0)
        thread.append(Transaction().store(8, 1))
        assert len(thread) == 1
        assert sum(1 for _ in thread) == 1


class TestTrace:
    def make(self):
        t0 = ThreadTrace(0, [Transaction().store(0x1000, 1)])
        t1 = ThreadTrace(1, [Transaction().store(0x2000, 2).store(0x2008, 3)])
        return Trace([t0, t1], initial_image={0x1000: 9}, name="t")

    def test_total_transactions(self):
        assert self.make().total_transactions == 2

    def test_mean_write_size(self):
        assert self.make().mean_write_size_bytes() == 12.0  # (8 + 16) / 2

    def test_total_ops_counts_ops_and_markers(self):
        # (1 store + begin + end) + (2 stores + begin + end)
        assert self.make().total_ops == 7
        assert Trace([], name="empty").total_ops == 0

    def test_total_ops_is_the_last_crash_point(self):
        """``at_op == total_ops`` is the end-boundary crash the engine
        fires; one past it is a plan that can never fire."""
        from repro.common.errors import SimulationError
        from repro.sim.crash import CrashPlan
        from repro.sim.engine import run_trace

        trace = self.make()
        result = run_trace(trace, "silo", crash_plan=CrashPlan(at_op=trace.total_ops))
        assert result.crashed
        with pytest.raises(SimulationError, match="never fired"):
            run_trace(trace, "silo", crash_plan=CrashPlan(at_op=trace.total_ops + 1))

    def test_touched_words_includes_initial_image(self):
        words = set(self.make().touched_words())
        assert words == {0x1000, 0x2000, 0x2008}

    def test_empty_trace_mean_is_zero(self):
        assert Trace([], name="empty").mean_write_size_bytes() == 0.0

    def test_repr(self):
        assert "2 transactions" in repr(self.make())
