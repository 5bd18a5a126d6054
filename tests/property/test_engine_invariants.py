"""Property-based timing/accounting invariants of the engine."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

ALL_SCHEMES = ("base", "fwb", "morlog", "lad", "silo", "swlog")

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params = st.fixed_dictionaries(
    {
        "threads": st.integers(1, 2),
        "transactions_per_thread": st.integers(1, 6),
        "write_set_words": st.integers(1, 25),
        "rewrite_fraction": st.floats(0, 1),
        "seed": st.integers(0, 9999),
    }
)


def run(scheme, p, crash_at=None):
    trace = synthetic_trace(SyntheticTraceConfig(arena_words=64, **p))
    system = System(SystemConfig.table2(p["threads"]))
    plan = CrashPlan(at_op=crash_at) if crash_at is not None else None
    engine = TransactionEngine(
        system, SchemeRegistry.create(scheme, system), trace, crash_plan=plan
    )
    return trace, system, engine.run()


class TestAccounting:
    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_committed_matches_engine_counter(self, p, scheme):
        trace, system, result = run(scheme, p)
        assert result.committed_count == trace.total_transactions
        assert result.committed_count == system.stats.get("engine.committed")

    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_end_cycle_covers_media_drain(self, p, scheme):
        _, system, result = run(scheme, p)
        assert result.end_cycle >= system.mc.drain_completion() - 1

    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_media_writes_monotone_in_stats(self, p, scheme):
        _, system, result = run(scheme, p)
        assert result.media_writes <= system.stats.get("mc.writes") * 32
        assert result.media_writes >= 0

    @_SETTINGS
    @given(
        p=params,
        scheme=st.sampled_from(ALL_SCHEMES),
        crash=st.integers(0, 10_000),
    )
    def test_crash_beyond_trace_fails_loudly(self, p, scheme, crash):
        """An at_op *strictly* past the end of the trace can never
        fire; silently finishing would make the crash experiment
        vacuous, so the engine must refuse instead.  (``at_op ==
        total_ops`` is the well-defined end-boundary crash and does
        fire — see TestCrashBoundaries.)"""
        trace = synthetic_trace(SyntheticTraceConfig(arena_words=64, **p))
        total_ops = trace.total_ops
        system = System(SystemConfig.table2(p["threads"]))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create(scheme, system),
            trace,
            crash_plan=CrashPlan(at_op=total_ops + 1 + crash),
        )
        with pytest.raises(SimulationError, match="never fired"):
            engine.run()


class TestCrashBoundaries:
    """Both ends of the crash-point range are well-defined cells.

    ``at_op=0`` fires before any op issues: nothing commits and the
    recovered image is the initial one.  ``at_op == total_ops`` fires
    after the last op retires but before the clean end-of-run drain:
    every transaction has acknowledged, and recovery must still
    reproduce all of them from whatever had drained.  (The equivalence
    gate additionally pins that both engines agree on these cells.)
    """

    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_crash_before_first_op_recovers_initial_image(self, p, scheme):
        from repro.sim.verify import check_atomic_durability

        trace, system, result = run(scheme, p, crash_at=0)
        assert result.crashed
        assert result.committed_count == 0
        assert check_atomic_durability(system, trace, result.committed) == []
        media = system.pm.media
        for addr in trace.touched_words():
            assert media.read_word(addr) == trace.initial_image.get(addr, 0)

    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_crash_after_last_op_recovers_all_commits(self, p, scheme):
        from repro.sim.verify import check_atomic_durability

        probe = synthetic_trace(SyntheticTraceConfig(arena_words=64, **p))
        total_ops = probe.total_ops
        trace, system, result = run(scheme, p, crash_at=total_ops)
        assert result.crashed
        assert result.committed_count == trace.total_transactions
        assert check_atomic_durability(system, trace, result.committed) == []


class TestMonotonicity:
    @_SETTINGS
    @given(p=params)
    def test_more_transactions_take_more_time(self, p):
        """Doubling the work never reduces the end cycle (sanity of
        the per-core clocks)."""
        small = dict(p)
        big = dict(p)
        big["transactions_per_thread"] = p["transactions_per_thread"] * 2
        _, _, r_small = run("silo", small)
        _, _, r_big = run("silo", big)
        assert r_big.end_cycle >= r_small.end_cycle

    @_SETTINGS
    @given(p=params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_runs_deterministic(self, p, scheme):
        _, _, a = run(scheme, p)
        _, _, b = run(scheme, p)
        assert a.end_cycle == b.end_cycle
        assert a.media_writes == b.media_writes
