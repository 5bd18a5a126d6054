"""Design-specific behavioural tests: each scheme exhibits the paper's
characteristic traffic and mechanism."""

import pytest

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.engine import TransactionEngine, run_trace
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.trace.trace import ThreadTrace, Trace, Transaction
from repro.workloads import build_workload


def trace_with(write_set=8, txs=30, threads=1, **kwargs):
    return synthetic_trace(
        SyntheticTraceConfig(
            threads=threads,
            transactions_per_thread=txs,
            write_set_words=write_set,
            arena_words=512,
            seed=21,
            **kwargs,
        )
    )


def run(scheme, trace, cores=1, config=None):
    system = System(config or SystemConfig.table2(cores))
    engine = TransactionEngine(system, SchemeRegistry.create(scheme, system), trace)
    return system, engine.run()


class TestSiloCommonCase:
    def test_no_log_writes_in_failure_free_run(self):
        """The headline property: Log as Data — with no overflow and no
        crash, Silo writes *zero* log traffic to PM."""
        trace = trace_with(write_set=8)
        system, result = run("silo", trace)
        assert result.stats.get("mc.writes.log", 0) == 0

    def test_ignorance_removes_silent_stores(self):
        trace = trace_with(write_set=8, silent_fraction=0.5)
        system, result = run("silo", trace)
        assert result.stats.get("loggen.ignored") > 0

    def test_merging_removes_rewrites(self):
        trace = trace_with(write_set=8, rewrite_fraction=1.0)
        system, result = run("silo", trace)
        merged = sum(
            v for k, v in result.stats.items() if k.endswith(".merged")
        )
        assert merged > 0

    def test_tx_log_counts_recorded(self):
        trace = trace_with(txs=5)
        _, result = run("silo", trace)
        assert len(result.tx_log_counts) == 5
        for total, remaining in result.tx_log_counts:
            assert remaining <= total

    def test_flush_bit_set_on_eviction(self):
        """Force cacheline evictions during transactions with a tiny
        cache and verify the flush-bit path fires."""
        from dataclasses import replace

        from repro.common.config import CacheConfig

        cfg = SystemConfig.table2(1)
        tiny = replace(
            cfg,
            l1=CacheConfig(2 * 64, 1, latency_cycles=4),
            l2=CacheConfig(4 * 64, 1, latency_cycles=12),
            l3=CacheConfig(8 * 64, 1, latency_cycles=28),
        )
        trace = trace_with(write_set=16, txs=50)
        system, result = run("silo", trace, config=tiny)
        assert result.stats.get("silo.flushbit_discarded", 0) > 0


class TestSiloOverflow:
    def test_overflow_triggers_beyond_buffer_capacity(self):
        trace = trace_with(write_set=50, txs=10)
        system, result = run("silo", trace)
        assert result.stats.get("silo.overflows") > 0
        assert result.stats.get("mc.writes.log") > 0

    def test_no_overflow_within_capacity(self):
        trace = trace_with(write_set=10, txs=10)
        system, result = run("silo", trace)
        assert result.stats.get("silo.overflows", 0) == 0

    def test_all_transactions_still_commit(self):
        trace = trace_with(write_set=80, txs=10)
        _, result = run("silo", trace)
        assert result.committed_count == 10

    def test_smaller_log_buffer_overflows_more(self):
        trace = build_workload("rbtree", threads=1, transactions=30)
        tiny = SystemConfig.table2(1).with_log_buffer(entries=5)
        _, small = run("silo", trace, config=tiny)
        _, normal = run("silo", trace)
        assert small.stats.get("silo.overflows", 0) > normal.stats.get(
            "silo.overflows", 0
        )

    def test_overflow_logs_discarded_after_commit(self):
        trace = trace_with(write_set=50, txs=10)
        system, result = run("silo", trace)
        assert system.region.total_persisted() == 0  # truncated at commit


class TestBase:
    def test_writes_log_and_data_per_store(self):
        trace = trace_with(write_set=8, txs=20)
        system, result = run("base", trace)
        stores = sum(len(tx.stores) for tx in trace.all_transactions())
        assert result.stats.get("mc.writes.log") >= stores  # + tuples
        assert result.stats.get("mc.writes.data") >= stores * 0.9

    def test_highest_traffic_of_all_designs(self):
        trace = trace_with(write_set=8, txs=30)
        writes = {}
        for scheme in ("base", "fwb", "morlog", "lad", "silo"):
            _, result = run(scheme, trace)
            writes[scheme] = result.media_writes
        assert writes["base"] == max(writes.values())


class TestFWBvsMorLog:
    def test_morlog_writes_fewer_logs_than_fwb(self):
        """Intermediate-redo elimination + packing: MorLog's log
        traffic must be clearly below FWB's."""
        trace = trace_with(write_set=8, txs=30, rewrite_fraction=0.5)
        _, fwb = run("fwb", trace)
        _, morlog = run("morlog", trace)
        assert morlog.stats.get("mc.writes.log") < fwb.stats.get("mc.writes.log")
        assert morlog.media_writes < fwb.media_writes


class TestLAD:
    def test_no_logs_in_common_case(self):
        trace = trace_with(write_set=6, txs=20)
        _, result = run("lad", trace)
        assert result.stats.get("mc.writes.log", 0) == 0
        assert result.stats.get("lad.fallbacks", 0) == 0

    def test_fallback_under_capture_pressure(self):
        """Concurrent write sets beyond the 64-line capture buffer push
        LAD into its undo-logging slow mode."""
        trace = synthetic_trace(
            SyntheticTraceConfig(
                threads=4,
                transactions_per_thread=10,
                write_set_words=40,
                arena_words=4096,
                seed=5,
            )
        )
        _, result = run("lad", trace, cores=4)
        assert result.stats.get("lad.fallbacks", 0) > 0
        assert result.stats.get("mc.writes.log", 0) > 0

    def test_lowest_traffic_tier(self):
        trace = trace_with(write_set=8, txs=30)
        _, lad = run("lad", trace)
        _, fwb = run("fwb", trace)
        assert lad.media_writes < fwb.media_writes / 2


class TestRelativePerformance:
    """The paper's headline ordering must hold on a generic workload."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = synthetic_trace(
            SyntheticTraceConfig(
                threads=4,
                transactions_per_thread=60,
                write_set_words=10,
                rewrite_fraction=0.3,
                silent_fraction=0.2,
                arena_words=2048,
                seed=33,
            )
        )
        out = {}
        for scheme in ("base", "fwb", "morlog", "lad", "silo"):
            out[scheme] = run_trace(
                trace, scheme=scheme, config=SystemConfig.table2(4)
            )
        return out

    def test_silo_fastest(self, results):
        best = max(results.values(), key=lambda r: r.throughput_tx_per_sec)
        assert best.scheme == "silo"

    def test_base_slowest(self, results):
        worst = min(results.values(), key=lambda r: r.throughput_tx_per_sec)
        assert worst.scheme == "base"

    def test_write_traffic_ordering(self, results):
        w = {s: r.media_writes for s, r in results.items()}
        assert w["silo"] < w["morlog"] < w["fwb"] <= w["base"]

    def test_silo_close_to_lad_traffic(self, results):
        w = {s: r.media_writes for s, r in results.items()}
        assert w["silo"] <= w["lad"] * 1.5
