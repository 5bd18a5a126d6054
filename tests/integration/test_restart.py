"""Crash -> recover -> restart -> continue: the full availability loop.

The strongest end-to-end statement the simulator can make: for every
design, crashing anywhere, recovering, and re-running the uncommitted
suffix must land on exactly the same PM image as a run that never
crashed.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine, run_trace
from repro.sim.restart import continuation_trace, resume_trace
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.workloads import build_workload

#: Every registered design, a future one included.
ALL_SCHEMES = tuple(SchemeRegistry.names())


def make_trace():
    return synthetic_trace(
        SyntheticTraceConfig(
            threads=2,
            transactions_per_thread=6,
            write_set_words=12,
            rewrite_fraction=0.4,
            arena_words=128,
            seed=77,
        )
    )


def crash_free_image(trace, scheme):
    system = System(SystemConfig.table2(2))
    TransactionEngine(system, SchemeRegistry.create(scheme, system), trace).run()
    return {a: system.pm.media.read_word(a) for a in trace.touched_words()}


def crash_and_restart_image(trace, scheme, at_op):
    system = System(SystemConfig.table2(2))
    engine = TransactionEngine(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=CrashPlan(at_op=at_op),
    )
    result = engine.run()
    restart = resume_trace(system, trace, result)
    assert restart.committed_count == continuation_count(trace, result)
    return {a: system.pm.media.read_word(a) for a in trace.touched_words()}


def continuation_count(trace, result):
    return continuation_trace(trace, result).total_transactions


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestRestartEquivalence:
    @pytest.mark.parametrize("at_op", [0, 7, 23, 61, 113])
    def test_restart_reaches_crash_free_state(self, scheme, at_op):
        trace = make_trace()
        want = crash_free_image(trace, scheme)
        got = crash_and_restart_image(trace, scheme, at_op)
        assert got == want

    def test_restart_after_commit_strike(self, scheme):
        trace = make_trace()
        system = System(SystemConfig.table2(2))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create(scheme, system),
            trace,
            crash_plan=CrashPlan(at_commit_of=(1, 2)),
        )
        result = engine.run()
        resume_trace(system, trace, result)
        want = crash_free_image(trace, scheme)
        got = {a: system.pm.media.read_word(a) for a in trace.touched_words()}
        assert got == want


class TestContinuationTrace:
    def test_only_uncommitted_suffix_remains(self):
        trace = make_trace()
        result = run_trace(
            trace, scheme="silo", config=SystemConfig.table2(2),
            crash_plan=CrashPlan(at_op=40),
        )
        remaining = continuation_trace(trace, result)
        assert (
            remaining.total_transactions
            == trace.total_transactions - result.committed_count
        )
        assert remaining.initial_image == {}

    def test_rejects_crash_free_result(self):
        trace = make_trace()
        result = run_trace(trace, scheme="silo", config=SystemConfig.table2(2))
        with pytest.raises(SimulationError):
            continuation_trace(trace, result)


class TestRestartOnRealWorkload:
    def test_btree_restart_silo(self):
        trace = build_workload("btree", threads=2, transactions=8)
        system = System(SystemConfig.table2(2))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create("silo", system),
            trace,
            crash_plan=CrashPlan(at_op=90),
        )
        result = engine.run()
        resume_trace(system, trace, result)

        reference = System(SystemConfig.table2(2))
        TransactionEngine(
            reference, SchemeRegistry.create("silo", reference), trace
        ).run()
        for addr in trace.touched_words():
            assert system.pm.media.read_word(addr) == reference.pm.media.read_word(
                addr
            )
