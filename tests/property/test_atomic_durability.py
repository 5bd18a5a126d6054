"""THE invariant: atomic durability under arbitrary crashes.

For every design, for randomly generated transaction mixes (random
write sets, rewrites, silent stores, multiple threads) and a random
crash point, the recovered PM image must equal the initial image plus
exactly the committed transactions' writes — all-or-nothing per
transaction (atomicity), nothing committed lost (durability).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

#: Every registered design, a future one included.
ALL_SCHEMES = tuple(SchemeRegistry.names())

trace_params = st.fixed_dictionaries(
    {
        "threads": st.integers(1, 2),
        "transactions_per_thread": st.integers(1, 5),
        "write_set_words": st.integers(1, 40),
        "rewrite_fraction": st.floats(0, 1),
        "silent_fraction": st.floats(0, 0.6),
        "seed": st.integers(0, 2**16),
    }
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_crashed(scheme, params, crash_fraction):
    trace = synthetic_trace(
        SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
    )
    total_ops = sum(
        len(tx.ops) + 2 for thread in trace.threads for tx in thread.transactions
    )
    # ``at_op == total_ops`` is the end-boundary crash (fires after the
    # last op retires, before the clean drain): atomic durability must
    # hold there too, so the clamp includes it.
    at_op = min(int(crash_fraction * total_ops), total_ops)
    system = System(SystemConfig.table2(max(params["threads"], 1)))
    engine = TransactionEngine(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=CrashPlan(at_op=at_op),
    )
    result = engine.run()
    return system, trace, result


def assert_atomic_durability(scheme, params, crash_fraction):
    system, trace, result = run_crashed(scheme, params, crash_fraction)
    mismatches = check_atomic_durability(system, trace, result.committed)
    assert mismatches == [], (
        f"{scheme}: {len(mismatches)} mismatches, first: {mismatches[:3]}, "
        f"committed={sorted(result.committed)}"
    )


class TestAtomicDurabilityUnderCrash:
    """One hypothesis target per design so shrinking stays per-scheme."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @_SETTINGS
    @given(params=trace_params, crash=st.floats(0, 1))
    def test_design(self, scheme, params, crash):
        assert_atomic_durability(scheme, params, crash)


class TestFailureFreeEquivalence:
    @_SETTINGS
    @given(params=trace_params)
    def test_all_schemes_reach_identical_final_state(self, params):
        """Without a crash, every design must produce the same final
        PM image: the logging scheme must never change semantics."""
        trace = synthetic_trace(
            SyntheticTraceConfig(arena_words=128, **params)
        )
        words = sorted(trace.touched_words())
        snapshots = {}
        for scheme in ALL_SCHEMES:
            system = System(SystemConfig.table2(max(params["threads"], 1)))
            engine = TransactionEngine(
                system, SchemeRegistry.create(scheme, system), trace
            )
            engine.run()
            media = system.pm.media
            snapshots[scheme] = [media.read_word(a) for a in words]
        reference = snapshots["silo"]
        for scheme, snap in snapshots.items():
            assert snap == reference, f"{scheme} diverged from silo"


class TestDurabilityOfInterruptedCommit:
    @_SETTINGS
    @given(
        params=trace_params,
        scheme=st.sampled_from(ALL_SCHEMES),
        data=st.data(),
    )
    def test_commit_crash_preserves_transaction(self, params, scheme, data):
        trace = synthetic_trace(
            SyntheticTraceConfig(arena_words=128, **params)
        )
        tid = data.draw(st.integers(0, params["threads"] - 1))
        index = data.draw(
            st.integers(0, params["transactions_per_thread"] - 1)
        )
        system = System(SystemConfig.table2(params["threads"]))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create(scheme, system),
            trace,
            crash_plan=CrashPlan(at_commit_of=(tid, index)),
        )
        result = engine.run()
        assert (tid, index) in result.committed
        assert check_atomic_durability(system, trace, result.committed) == []
