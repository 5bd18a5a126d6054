"""Fault-aware atomic durability under arbitrary crashes + device faults.

For every design, over hypothesis-generated transaction mixes, crash
points, and fault plans (torn log drains, dropped ADR entries, log and
data-media bit flips), the fault-aware oracle must hold: committed
transactions whose logs survived stay durable, uncommitted writes never
leak, and every injected-but-unprotected corruption is *reported* by
recovery — never silently absorbed into a plausible-looking image.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.faults.oracle import check_fault_aware_durability
from repro.faults.plan import FaultPlan
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
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

fault_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "tear_prob": st.floats(0, 0.6),
        "drop_prob": st.floats(0, 0.4),
        "log_bitflips": st.integers(0, 3),
        "data_bitflips": st.integers(0, 3),
        "fault_tuples": st.booleans(),
    }
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_faulted(scheme, params, crash_fraction, fault_kwargs):
    trace = synthetic_trace(
        SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
    )
    total_ops = trace.total_ops
    at_op = min(int(crash_fraction * total_ops), total_ops - 1)
    system = System(SystemConfig.table2(max(params["threads"], 1)))
    engine = TransactionEngine(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=CrashPlan(at_op=at_op),
        fault_plan=FaultPlan(**fault_kwargs),
    )
    result = engine.run()
    return system, trace, result


def assert_fault_aware_durability(scheme, params, crash_fraction, fault_kwargs):
    system, trace, result = run_faulted(
        scheme, params, crash_fraction, fault_kwargs
    )
    verdict = check_fault_aware_durability(system, trace, result)
    assert verdict.ok, (
        f"{scheme}: {verdict.describe()}\n"
        f"injected={verdict.injected} reported={verdict.reported}\n"
        f"silent={verdict.silent} "
        f"unattributed={verdict.unattributed[:3]} "
        f"committed={sorted(result.committed)}"
    )


class TestFaultAwareDurability:
    """One hypothesis target per design so shrinking stays per-scheme."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @_SETTINGS
    @given(params=trace_params, crash=st.floats(0, 1), faults=fault_params)
    def test_design(self, scheme, params, crash, faults):
        assert_fault_aware_durability(scheme, params, crash, faults)


class TestNoFaultEquivalence:
    @_SETTINGS
    @given(
        params=trace_params,
        crash=st.floats(0, 1),
        scheme=st.sampled_from(ALL_SCHEMES),
    )
    def test_noop_plan_matches_clean_crash(self, params, crash, scheme):
        """A no-op fault plan must be bit-identical to running with no
        fault plan at all: clean-path results never shift."""
        sys_a, trace, res_a = run_faulted(
            scheme, params, crash, {"seed": 0}
        )
        trace_b = synthetic_trace(
            SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
        )
        total_ops = trace_b.total_ops
        at_op = min(int(crash * total_ops), total_ops - 1)
        sys_b = System(SystemConfig.table2(max(params["threads"], 1)))
        engine = TransactionEngine(
            sys_b,
            SchemeRegistry.create(scheme, sys_b),
            trace_b,
            crash_plan=CrashPlan(at_op=at_op),
        )
        res_b = engine.run()
        assert res_a.committed == res_b.committed
        words = sorted(trace.touched_words())
        image_a = [sys_a.pm.media.read_word(a) for a in words]
        image_b = [sys_b.pm.media.read_word(a) for a in words]
        assert image_a == image_b, f"{scheme}: no-op fault plan shifted the image"


class TestFaultStorm:
    @_SETTINGS
    @given(
        params=trace_params,
        crash=st.floats(0, 1),
        scheme=st.sampled_from(ALL_SCHEMES),
        seed=st.integers(0, 2**16),
    )
    def test_aggressive_storm_never_silent(self, params, crash, scheme, seed):
        """Max-rate tears + drops + flips: the oracle may tolerate loss
        (it is attributed), but nothing may go unreported."""
        assert_fault_aware_durability(
            scheme,
            params,
            crash,
            {
                "seed": seed,
                "tear_prob": 0.5,
                "drop_prob": 0.5,
                "log_bitflips": 3,
                "data_bitflips": 3,
            },
        )
