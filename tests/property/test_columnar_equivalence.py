"""Columnar engine equivalence: bit-identity against the exact engine.

The batched columnar engine is only admissible because it produces
*exactly* the results of the cycle-accurate :class:`TransactionEngine`
— not approximately, not statistically.  For randomly generated
transaction mixes, core counts and every registered scheme, both
engines must agree on the end cycle, the committed set, the per-
transaction log counts and the **entire** stats counter mapping,
including runs where a crash plan forces the columnar engine down its
exact-delegation path.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.columnar import ColumnarEngine
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.trace.trace import ThreadTrace, Trace, Transaction

ALL_SCHEMES = tuple(sorted(SchemeRegistry.names()))

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


def _run(engine_cls, scheme, params, crash_plan=None):
    trace = synthetic_trace(
        SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
    )
    system = System(SystemConfig.table2(max(params["threads"], 1)))
    engine = engine_cls(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=crash_plan,
    )
    return engine, engine.run()


def assert_bit_identical(scheme, params, crash_plan=None):
    _, exact = _run(TransactionEngine, scheme, params, crash_plan)
    columnar_engine, columnar = _run(
        ColumnarEngine, scheme, params, crash_plan
    )
    where = f"{scheme} params={params}"
    assert exact.end_cycle == columnar.end_cycle, (
        f"{where}: end_cycle {exact.end_cycle} != {columnar.end_cycle}"
    )
    assert exact.committed == columnar.committed, f"{where}: committed"
    assert exact.crashed == columnar.crashed, f"{where}: crashed flag"
    assert exact.tx_log_counts == columnar.tx_log_counts, (
        f"{where}: tx_log_counts"
    )
    assert dict(exact.stats.counters) == dict(columnar.stats.counters), (
        f"{where}: stats counters"
    )
    return columnar_engine


class TestColumnarBitIdentity:
    """Randomized traces, every scheme, no failure injection."""

    @_SETTINGS
    @given(params=trace_params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_random_scheme(self, params, scheme):
        assert_bit_identical(scheme, params)

    def test_every_scheme_fixed_workload(self):
        """Deterministic all-nine sweep: sampling above may skip a
        scheme within one hypothesis run; this one never does."""
        params = {
            "threads": 2,
            "transactions_per_thread": 4,
            "write_set_words": 12,
            "rewrite_fraction": 0.4,
            "silent_fraction": 0.2,
            "seed": 7,
        }
        for scheme in ALL_SCHEMES:
            assert_bit_identical(scheme, params)

    def test_fast_path_actually_engaged(self):
        """The equivalence above must not be vacuous: on a plain
        multi-transaction workload the WAL kernel (base) runs fused."""
        params = {
            "threads": 1,
            "transactions_per_thread": 6,
            "write_set_words": 8,
            "rewrite_fraction": 0.25,
            "silent_fraction": 0.0,
            "seed": 3,
        }
        engine = assert_bit_identical("base", params)
        stats = engine.engine_stats()
        assert not stats["delegated"]
        assert stats["fast_fraction"] > 0.5, stats


#: A word-aligned address just past the 48-bit log-entry field: the
#: fused kernels cannot prove such a store identical (log entries
#: truncate the address), so it must fall back per-op.  Silo completes
#: it exactly when the store is *silent* (old == new: the generator
#: ignores it before building a log entry), which makes it the one
#: kind-5 store a run survives — and thus the perfect probe for the
#: mid-epoch fallback path.
_BIG_ADDR = 1 << 48
_BIG_VAL = 0xD00D


def _addr48_trace(lead, trail, txs, seed):
    """Two threads of random-store transactions; thread 0's first
    transaction hides one silent out-of-range store mid-stream."""
    rng = random.Random(seed)
    arena = [8 * i for i in range(64)]
    threads = []
    for tid in range(2):
        transactions = []
        for t in range(txs):
            tx = Transaction()
            for _ in range(lead):
                tx.store(rng.choice(arena), rng.randrange(1, 1 << 32))
            if tid == 0 and t == 0:
                tx.store(_BIG_ADDR, _BIG_VAL)
            for _ in range(trail):
                tx.store(rng.choice(arena), rng.randrange(1, 1 << 32))
            transactions.append(tx)
        threads.append(ThreadTrace(tid, transactions))
    return Trace(threads, initial_image={_BIG_ADDR: _BIG_VAL}, name="addr48")


class TestColumnarPerOpFallback:
    """Mid-epoch per-op fallback in the buffered stepper: one op the
    fast path cannot prove identical is handed to the exact engine,
    then fused stepping resumes on the very next op."""

    @_SETTINGS
    @given(
        lead=st.integers(1, 8),
        trail=st.integers(1, 8),
        txs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_mid_epoch_fallback_bit_identical(self, lead, trail, txs, seed):
        trace = _addr48_trace(lead, trail, txs, seed)

        def run(engine_cls):
            system = System(SystemConfig.table2(2))
            engine = engine_cls(
                system, SchemeRegistry.create("silo", system), trace
            )
            return engine, engine.run()

        _, exact = run(TransactionEngine)
        engine, columnar = run(ColumnarEngine)
        assert exact.end_cycle == columnar.end_cycle
        assert exact.committed == columnar.committed
        assert exact.tx_log_counts == columnar.tx_log_counts
        assert dict(exact.stats.counters) == dict(columnar.stats.counters)

        stats = engine.engine_stats()
        assert not stats["delegated"]
        # Both cores run the fused silo kernel; exactly the one
        # out-of-range store fell back, correctly attributed.
        assert stats["fused_cores"] == stats["total_cores"] == 2
        assert stats["exact_ops"] == 1
        assert stats["fast_ops"] > 0
        assert 0.0 < stats["fast_fraction"] < 1.0
        assert stats["fallback_reasons"] == {"op:addr48": 1}


class TestColumnarCrashDelegation:
    """A crash plan forces whole-run delegation to the exact engine;
    the results must still be bit-identical (shared code path)."""

    @_SETTINGS
    @given(
        params=trace_params,
        scheme=st.sampled_from(ALL_SCHEMES),
        crash=st.floats(0, 1),
    )
    def test_crashed_runs_agree(self, params, scheme, crash):
        trace = synthetic_trace(
            SyntheticTraceConfig(
                arena_words=128, loads_per_store=0.2, **params
            )
        )
        total_ops = trace.total_ops
        at_op = min(int(crash * total_ops), total_ops - 1)
        engine = assert_bit_identical(
            scheme, params, crash_plan=CrashPlan(at_op=at_op)
        )
        assert engine.delegated
        assert engine.delegated_reason == "crash_plan"
