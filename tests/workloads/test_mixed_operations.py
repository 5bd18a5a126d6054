"""Mixed-operation workload modes (insert/delete/lookup)."""

import pytest

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine, run_trace
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.workloads import build_workload

MIXED_WORKLOADS = ("btree", "rbtree", "hash")


@pytest.mark.parametrize("name", MIXED_WORKLOADS)
class TestMixedBuilders:
    def test_builds_and_runs(self, name):
        trace = build_workload(
            name, threads=2, transactions=40, operation_mix="mixed"
        )
        result = run_trace(trace, scheme="silo", config=SystemConfig.table2(2))
        assert result.committed_count == 80

    def test_mixed_differs_from_insert_only(self, name):
        insert = build_workload(name, threads=1, transactions=40)
        mixed = build_workload(
            name, threads=1, transactions=40, operation_mix="mixed"
        )
        insert_ops = [tx.ops for tx in insert.all_transactions()]
        mixed_ops = [tx.ops for tx in mixed.all_transactions()]
        assert insert_ops != mixed_ops

    def test_deterministic(self, name):
        a = build_workload(name, threads=1, transactions=30, operation_mix="mixed")
        b = build_workload(name, threads=1, transactions=30, operation_mix="mixed")
        for ta, tb in zip(a.threads[0], b.threads[0]):
            assert ta.ops == tb.ops

    def test_crash_recovery_on_mixed_trace(self, name):
        """Deletions interleave shifted/merged node writes: atomic
        durability must still hold at arbitrary crash points."""
        trace = build_workload(
            name, threads=2, transactions=8, operation_mix="mixed"
        )
        total_ops = trace.total_ops
        for scheme in ("base", "lad", "silo"):
            for at in (0, total_ops // 3, 2 * total_ops // 3):
                system = System(SystemConfig.table2(2))
                engine = TransactionEngine(
                    system,
                    SchemeRegistry.create(scheme, system),
                    trace,
                    crash_plan=CrashPlan(at_op=at),
                )
                result = engine.run()
                assert (
                    check_atomic_durability(system, trace, result.committed) == []
                ), (name, scheme, at)
