"""Observability transparency under arbitrary workloads and crashes.

The strongest form of the "observation only" contract: over
hypothesis-generated transaction mixes, designs and crash points, a run
with event tracing and metrics enabled must be bit-identical — same
``end_cycle``, same counter registry, same commit set — to the same
run with observability disabled.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.obs import ObsConfig
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

ALL_SCHEMES = tuple(SchemeRegistry.names())

trace_params = st.fixed_dictionaries(
    {
        "threads": st.integers(1, 2),
        "transactions_per_thread": st.integers(1, 4),
        "write_set_words": st.integers(1, 30),
        "rewrite_fraction": st.floats(0, 1),
        "seed": st.integers(0, 2**16),
    }
)

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_once(scheme, params, crash_fraction, obs):
    trace = synthetic_trace(
        SyntheticTraceConfig(arena_words=96, loads_per_store=0.2, **params)
    )
    crash_plan = None
    if crash_fraction is not None:
        total_ops = trace.total_ops
        crash_plan = CrashPlan(
            at_op=min(int(crash_fraction * total_ops), total_ops - 1)
        )
    system = System(SystemConfig.table2(max(params["threads"], 1)), obs=obs)
    engine = TransactionEngine(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=crash_plan,
    )
    return engine.run()


@_SETTINGS
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    params=trace_params,
    crash=st.one_of(st.none(), st.floats(0, 1)),
)
def test_tracing_never_changes_the_run(scheme, params, crash):
    plain = run_once(scheme, params, crash, obs=None)
    observed = run_once(
        scheme, params, crash, obs=ObsConfig(events=True, metrics=True)
    )
    assert observed.end_cycle == plain.end_cycle
    assert observed.stats.counters == plain.stats.counters
    assert observed.committed == plain.committed
    assert observed.recovery == plain.recovery
