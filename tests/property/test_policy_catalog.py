"""Atomic durability across the whole policy cross-product.

The catalog registers four policy-assembled designs, but the framework
claims more: *any* granularity policy combined with *any* fence
schedule and a redo-family recovery walk must preserve atomic
durability at every crash point.  These tests assemble the full
(granularity x fence schedule x recovery) cross-product as ad-hoc
:class:`PolicyScheme` subclasses — including combinations no catalog
entry uses — and crash them everywhere.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.policy import (
    FOUR_FENCE,
    ONE_FENCE,
    TWO_FENCE,
    AdaptiveGranularity,
    DesignSpec,
    PageGranularity,
    PolicyScheme,
    RecoveryWalk,
    WordGranularity,
)
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

_GRANULARITIES = (
    WordGranularity(),
    PageGranularity(),
    AdaptiveGranularity(threshold=1),
    AdaptiveGranularity(threshold=3),
)
_SCHEDULES = (ONE_FENCE, TWO_FENCE, FOUR_FENCE)
_WALKS = (RecoveryWalk.redo_only(), RecoveryWalk.dcw())


def _combo_scheme(granularity, schedule, walk):
    label = f"combo-{granularity.name}-{schedule.name}-{walk.mode}"
    spec = DesignSpec(
        name=label,
        summary="ad-hoc policy cross-product entry",
        granularity=granularity,
        fences=schedule,
        recovery=walk,
    )
    cls_name = "Combo_" + label.replace("-", "_").replace(":", "_")
    return type(cls_name, (PolicyScheme,), {"name": label, "spec": spec})


#: Every (granularity x fence schedule x recovery) combination — 24
#: ad-hoc designs, of which only 4 shapes exist in the registry.
ALL_COMBOS = tuple(
    _combo_scheme(g, s, w)
    for g in _GRANULARITIES
    for s in _SCHEDULES
    for w in _WALKS
)

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


def _run_crashed(scheme_cls, trace, threads, at_op):
    system = System(SystemConfig.table2(threads))
    engine = TransactionEngine(
        system,
        scheme_cls(system),
        trace,
        crash_plan=CrashPlan(at_op=at_op),
    )
    result = engine.run()
    return system, result


class TestPolicyCrossProduct:
    @_SETTINGS
    @given(
        combo=st.sampled_from(ALL_COMBOS),
        params=trace_params,
        crash=st.floats(0, 1),
    )
    def test_atomic_durability_at_random_crash_points(
        self, combo, params, crash
    ):
        trace = synthetic_trace(
            SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
        )
        total_ops = trace.total_ops
        at_op = min(int(crash * total_ops), total_ops)
        system, result = _run_crashed(
            combo, trace, max(params["threads"], 1), at_op
        )
        mismatches = check_atomic_durability(system, trace, result.committed)
        assert mismatches == [], (
            f"{combo.name}: {len(mismatches)} mismatches at at_op={at_op}, "
            f"first: {mismatches[:3]}"
        )

    def test_every_combo_at_every_crash_point(self):
        """Exhaustive: each of the 24 combinations crashed at *every*
        operation boundary of a small 2-thread rewrite-heavy trace
        (both boundaries included)."""
        trace = synthetic_trace(
            SyntheticTraceConfig(
                threads=2,
                transactions_per_thread=2,
                write_set_words=10,
                rewrite_fraction=0.5,
                silent_fraction=0.2,
                loads_per_store=0.0,
                arena_words=128,
                seed=7,
            )
        )
        total_ops = trace.total_ops
        for combo in ALL_COMBOS:
            for at_op in range(total_ops + 1):
                system, result = _run_crashed(combo, trace, 2, at_op)
                mismatches = check_atomic_durability(
                    system, trace, result.committed
                )
                assert mismatches == [], (
                    f"{combo.name} at_op={at_op}: {mismatches[:3]}"
                )

    @_SETTINGS
    @given(
        combo=st.sampled_from(ALL_COMBOS),
        params=trace_params,
        data=st.data(),
    )
    def test_interrupted_commit_preserves_transaction(
        self, combo, params, data
    ):
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
            combo(system),
            trace,
            crash_plan=CrashPlan(at_commit_of=(tid, index)),
        )
        result = engine.run()
        assert (tid, index) in result.committed
        assert check_atomic_durability(system, trace, result.committed) == []


class TestRegisteredCatalogEntries:
    """The four registered policy designs, same invariant — these run
    through the registry path (``SchemeRegistry.create``) exactly as
    the harness does."""

    @_SETTINGS
    @given(
        scheme=st.sampled_from(("aglog", "quadra1f", "trinity2f", "redolog4f")),
        params=trace_params,
        crash=st.floats(0, 1),
    )
    def test_atomic_durability(self, scheme, params, crash):
        from repro.designs.scheme import SchemeRegistry

        trace = synthetic_trace(
            SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
        )
        total_ops = trace.total_ops
        at_op = min(int(crash * total_ops), total_ops)
        system = System(SystemConfig.table2(max(params["threads"], 1)))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create(scheme, system),
            trace,
            crash_plan=CrashPlan(at_op=at_op),
        )
        result = engine.run()
        mismatches = check_atomic_durability(system, trace, result.committed)
        assert mismatches == [], f"{scheme}: {mismatches[:3]}"
