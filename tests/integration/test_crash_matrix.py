"""Crash-point sweep: atomic durability for every design.

The exhaustive random sweep lives in ``tests/property``; this matrix
covers deterministic, strategically chosen crash points (first store,
mid-transaction, last store, every commit) for every scheme on traces
that exercise merging, silent stores and log overflow.
"""

import pytest

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

#: Every registered design, a future one included.
ALL_SCHEMES = tuple(SchemeRegistry.names())


def make_trace(write_set=8):
    return synthetic_trace(
        SyntheticTraceConfig(
            threads=2,
            transactions_per_thread=4,
            write_set_words=write_set,
            rewrite_fraction=0.5,
            silent_fraction=0.2,
            arena_words=128,
            seed=99,
        )
    )


def run_crash(scheme, trace, plan):
    system = System(SystemConfig.table2(2))
    engine = TransactionEngine(
        system, SchemeRegistry.create(scheme, system), trace, crash_plan=plan
    )
    result = engine.run()
    return system, result


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestCrashAtOps:
    @pytest.mark.parametrize("at_op", [0, 1, 3, 7, 15, 25, 40, 70])
    def test_atomic_durability_small_txs(self, scheme, at_op):
        trace = make_trace(write_set=8)
        system, result = run_crash(scheme, trace, CrashPlan(at_op=at_op))
        assert result.crashed
        mism = check_atomic_durability(system, trace, result.committed)
        assert mism == [], f"{scheme} at_op={at_op}: {mism[:3]}"

    @pytest.mark.parametrize("at_op", [5, 30, 60, 120])
    def test_atomic_durability_with_overflow(self, scheme, at_op):
        """Write sets > 20 words exercise Silo's overflow flushing and
        LAD's capture pressure during the crash."""
        trace = make_trace(write_set=35)
        system, result = run_crash(scheme, trace, CrashPlan(at_op=at_op))
        mism = check_atomic_durability(system, trace, result.committed)
        assert mism == [], f"{scheme} at_op={at_op}: {mism[:3]}"


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestCrashAtCommit:
    @pytest.mark.parametrize("victim", [(0, 0), (0, 3), (1, 1)])
    def test_interrupted_commit_is_durable(self, scheme, victim):
        """Every design claims durability at commit: a transaction
        whose Tx_end raced the power failure must survive recovery."""
        trace = make_trace(write_set=8)
        system, result = run_crash(
            scheme, trace, CrashPlan(at_commit_of=victim)
        )
        assert victim in result.committed
        assert check_atomic_durability(system, trace, result.committed) == []

    def test_interrupted_commit_with_overflow(self, scheme):
        trace = make_trace(write_set=35)
        system, result = run_crash(
            scheme, trace, CrashPlan(at_commit_of=(0, 1))
        )
        assert (0, 1) in result.committed
        assert check_atomic_durability(system, trace, result.committed) == []


class TestRecoveryReports:
    def test_silo_reports_replay_or_revoke(self):
        trace = make_trace()
        system, result = run_crash("silo", trace, CrashPlan(at_op=20))
        assert result.recovery is not None
        assert (
            result.recovery.replayed
            + result.recovery.revoked
            + result.recovery.discarded
            >= 0
        )

    def test_region_truncated_after_recovery(self):
        trace = make_trace()
        system, result = run_crash("silo", trace, CrashPlan(at_op=20))
        assert system.region.total_persisted() == 0

    def test_crash_plan_validation(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            CrashPlan()
        with pytest.raises(ConfigError):
            CrashPlan(at_op=1, at_commit_of=(0, 0))
        with pytest.raises(ConfigError):
            CrashPlan(at_op=-1)


class TestUnreachableCrashPlans:
    """A crash plan that can never fire must fail loudly: a sweep that
    silently completes failure-free would validate nothing."""

    def test_at_op_past_trace_end_raises(self):
        from repro.common.errors import SimulationError

        trace = make_trace()
        with pytest.raises(SimulationError, match="never fired"):
            run_crash("silo", trace, CrashPlan(at_op=10**9))

    def test_at_commit_of_unknown_transaction_raises(self):
        from repro.common.errors import SimulationError

        trace = make_trace()  # 2 threads x 4 transactions
        with pytest.raises(SimulationError, match="never fired"):
            run_crash("silo", trace, CrashPlan(at_commit_of=(0, 99)))

    def test_at_commit_of_unknown_thread_raises(self):
        from repro.common.errors import SimulationError

        trace = make_trace()
        with pytest.raises(SimulationError, match="never fired"):
            run_crash("base", trace, CrashPlan(at_commit_of=(7, 0)))
