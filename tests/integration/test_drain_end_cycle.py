"""End-cycle accounting around the post-loop drain, on both engines.

A clean run's ``end_cycle`` folds in ``mc.drain_completion()`` — the
measured run ends when the last write actually reaches media, not when
the last core retires.  A crashed run deliberately omits that drain:
the ADR flush after a power failure is recovery work, not part of the
measured run.  Both engines share ``TransactionEngine._finish``, so
they must agree on each path; this pins the contract with a trace
whose final store still has media work in flight when the cores stop.
"""

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.columnar import ColumnarEngine
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace


def _make_trace():
    # One thread, one transaction, a burst of distinct-word stores:
    # under Silo's buffered logging the media writes from the tail of
    # the burst are still draining when the core finishes.
    return synthetic_trace(
        SyntheticTraceConfig(
            threads=1,
            transactions_per_thread=1,
            write_set_words=32,
            rewrite_fraction=0.0,
            silent_fraction=0.0,
            loads_per_store=0.0,
            arena_words=64,
            seed=5,
        )
    )


def _run(engine_cls, trace, crash_plan=None):
    system = System(SystemConfig.table2(1))
    engine = engine_cls(
        system,
        SchemeRegistry.create("silo", system),
        trace,
        crash_plan=crash_plan,
    )
    return engine, engine.run()


def _core_times(engine):
    exact = getattr(engine, "_exact", engine)  # unwrap ColumnarEngine
    return max(core.time for core in exact._cores)


class TestDrainEndCycle:
    def test_clean_end_includes_pending_media_drain(self):
        engine, result = _run(TransactionEngine, _make_trace())
        assert result.end_cycle > _core_times(engine), (
            "clean end_cycle must extend past core retirement to cover "
            "the in-flight media writes"
        )

    def test_crashed_end_omits_drain(self):
        trace = _make_trace()
        total_ops = trace.total_ops
        crash = CrashPlan(at_op=total_ops - 1)
        engine, result = _run(TransactionEngine, trace, crash_plan=crash)
        assert result.crashed
        assert result.end_cycle == _core_times(engine), (
            "crashed end_cycle is the last core cycle; the ADR drain "
            "is recovery work and must not be measured"
        )

    def test_engines_agree_on_both_paths(self):
        trace = _make_trace()
        total_ops = trace.total_ops
        for crash_plan in (None, CrashPlan(at_op=total_ops - 1)):
            _, exact = _run(TransactionEngine, trace, crash_plan)
            _, columnar = _run(ColumnarEngine, trace, crash_plan)
            assert exact.end_cycle == columnar.end_cycle
            assert exact.committed == columnar.committed
            assert exact.crashed == columnar.crashed
            assert dict(exact.stats.counters) == dict(
                columnar.stats.counters
            )
