"""The full (workload x scheme) correctness matrix.

Every Table III workload under every design: all transactions commit
and the PM data region ends at exactly the architecturally expected
image.  This is the engine-level analogue of the per-workload unit
tests — it catches any scheme/workload interaction (evictions of tree
nodes mid-transaction, queue pointer updates split across lines, ...).
"""

import pytest

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.workloads.registry import FIG4_WORKLOADS, build_workload

ALL_SCHEMES = ("base", "fwb", "morlog", "lad", "silo", "swlog")


@pytest.fixture(scope="module")
def traces():
    return {
        name: build_workload(name, threads=2, transactions=12)
        for name in FIG4_WORKLOADS
    }


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("workload", FIG4_WORKLOADS)
def test_failure_free_correctness(traces, workload, scheme):
    trace = traces[workload]
    system = System(SystemConfig.table2(2))
    engine = TransactionEngine(system, SchemeRegistry.create(scheme, system), trace)
    result = engine.run()
    assert result.committed_count == trace.total_transactions
    assert check_atomic_durability(system, trace, result.committed) == []


@pytest.mark.parametrize("workload", FIG4_WORKLOADS)
def test_mid_run_crash_correctness(traces, workload):
    """One representative crash point per workload under Silo."""
    from repro.sim.crash import CrashPlan

    trace = traces[workload]
    total_ops = trace.total_ops
    system = System(SystemConfig.table2(2))
    engine = TransactionEngine(
        system,
        SchemeRegistry.create("silo", system),
        trace,
        crash_plan=CrashPlan(at_op=total_ops // 2),
    )
    result = engine.run()
    assert check_atomic_durability(system, trace, result.committed) == []
