"""The paper's qualitative claims, as executable predicates.

Each test regenerates one of the paper's tables or figures at a
reduced transaction count (ratios stabilise long before the paper's
10k transactions) and asserts its *shape*: orderings, ratios and
bounds the paper states.  Every study runs once, through one shared
:class:`Executor` over a temporary result cache, so Figs. 11 and 12,
which share their grid, simulate it only once between them.

A claim the model does not meet is declared ``xfail(strict=True)``
with the diagnosis recorded in EXPERIMENTS.md as its reason: the bound
stays the paper's, and the test fails loudly if the claim ever starts
to hold.
"""

import pytest

from repro.common.config import SystemConfig
from repro.core.silo import SiloScheme
from repro.designs.scheme import SchemeRegistry
from repro.harness import fig4, fig11, fig12, fig13, fig14, fig15, table1, table4
from repro.harness.executor import Executor
from repro.harness.experiments import run_experiment
from repro.harness.resultcache import ResultCache
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.workloads import build_workload

#: Transactions per thread for every study below.
TRANSACTIONS = 120

#: Core counts of the Fig. 11/12 grids: the single-core baseline and
#: the paper's headline eight cores.
CORE_COUNTS = (1, 8)

FIG15_VERDICT = (
    "model: the MC request bus is one in-order cursor, so Silo's "
    "in-place flush, issued a buffer latency after commit, holds the bus "
    "ahead of the core's next demand read and every transaction pays "
    "the latency once (EXPERIMENTS.md, Fig. 15 verdict)"
)


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("claims-cache")))
    with Executor(jobs=2, cache=cache) as shared:
        yield shared


@pytest.fixture(scope="module")
def fig11_result(executor):
    return run_experiment(
        fig11.SPEC, executor=executor, core_counts=CORE_COUNTS,
        transactions=TRANSACTIONS,
    )


@pytest.fixture(scope="module")
def fig12_result(executor):
    return run_experiment(
        fig12.SPEC, executor=executor, core_counts=CORE_COUNTS,
        transactions=TRANSACTIONS,
    )


@pytest.fixture(scope="module")
def fig15_result(executor):
    return run_experiment(
        fig15.SPEC,
        executor=executor,
        threads=4,
        transactions=TRANSACTIONS,
        latencies=(8, 32, 64, 96, 128),
    )


def run_silo(trace, cores, **silo_kwargs):
    system = System(SystemConfig.table2(cores))
    return TransactionEngine(system, SiloScheme(system, **silo_kwargs), trace).run()


# ----------------------------------------------------------------------
# Fig. 4 — write size per transaction
# ----------------------------------------------------------------------
def test_fig4_write_sizes(executor):
    """Every workload writes well under 0.5 KB per transaction: the
    small-write-set observation behind the 20-entry log buffer
    (Section II-E)."""
    result = run_experiment(
        fig4.SPEC, executor=executor, threads=2, transactions=TRANSACTIONS
    )
    for name, size in result.write_sizes.items():
        assert size < 512, f"{name} writes {size}B per transaction"
    assert result.average < 256


# ----------------------------------------------------------------------
# Fig. 11 — normalized PM media write traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cores", CORE_COUNTS)
def test_fig11_write_traffic(fig11_result, cores):
    """Base worst; FWB below Base; MorLog below FWB; LAD and Silo
    lowest and close to each other; Silo removes most of MorLog's
    writes (paper: 76.5%)."""
    avg = fig11_result.normalized(cores)["average"]
    # Base is the normalization target and the worst design.
    assert avg["base"] == 1.0
    assert max(avg.values()) == 1.0
    # Ordering: base >= fwb > morlog > {lad, silo}.
    assert avg["fwb"] <= 1.0
    assert avg["morlog"] < avg["fwb"]
    assert avg["silo"] < avg["morlog"]
    assert avg["lad"] < avg["morlog"]
    # Silo ~= LAD (the paper's "approximate write traffic with LAD").
    assert avg["silo"] <= avg["lad"] * 1.6
    assert avg["silo"] < 0.55 * avg["morlog"]


# ----------------------------------------------------------------------
# Fig. 12 — normalized transaction throughput
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cores", CORE_COUNTS)
def test_fig12_throughput(fig12_result, cores):
    """Base slowest everywhere; MorLog above FWB; Silo highest and
    ahead of LAD, by a multiple of the log-writing designs at 8 cores
    (paper: 4.3x over MorLog, 6.4x over FWB)."""
    avg = fig12_result.normalized(cores)["average"]
    assert avg["base"] == 1.0
    assert min(avg.values()) == 1.0  # base slowest
    assert avg["morlog"] > avg["fwb"] > 1.0
    assert avg["silo"] > avg["lad"] > avg["morlog"]
    if cores == 8:
        assert avg["silo"] > 2.5 * avg["morlog"]
        assert avg["silo"] > 4.0 * avg["fwb"]


def test_fig12_silo_gain_grows_with_cores(fig12_result):
    """Removing ordering constraints makes Silo's advantage larger at
    higher core counts."""
    gain_1 = fig12_result.normalized(1)["average"]["silo"]
    gain_8 = fig12_result.normalized(8)["average"]["silo"]
    assert gain_8 > gain_1


# ----------------------------------------------------------------------
# Fig. 13 — total vs remaining on-chip logs per transaction
# ----------------------------------------------------------------------
def test_fig13_log_reduction(executor):
    """Log ignorance and merging remove a large share of naive logs
    (paper: 64.3% on average, ~90% for Array)."""
    result = run_experiment(
        fig13.SPEC, executor=executor, threads=4, transactions=TRANSACTIONS
    )
    counts = result.counts
    # Array's element swaps rewrite identical padding (paper: 90.4%).
    assert counts["array"].reduction > 0.8
    assert result.average_reduction > 0.25
    # Locality-heavy workloads keep far fewer than their naive stores.
    assert counts["ycsb"].reduction > 0.5
    for name, c in counts.items():
        assert c.mean_remaining <= c.mean_total, name


# ----------------------------------------------------------------------
# Fig. 14 — large (overflowing) transactions
# ----------------------------------------------------------------------
def test_fig14_large_transactions(executor):
    """No aborts; throughput dips only moderately at 16x write sets
    (paper: -7.4%; the locality-poor workloads dip more here, see
    EXPERIMENTS.md); write traffic stays within ~2x per operation
    (paper: up to 1.9x); Array and TPCC stay essentially flat."""
    result = run_experiment(
        fig14.SPEC,
        executor=executor,
        threads=4,
        transactions=max(TRANSACTIONS // 2, 30),
    )
    top = result.multipliers[-1]
    # Stable workloads: ignorance (array) and locality (tpcc).
    assert result.throughput["array"][top] > 0.75
    assert result.throughput["tpcc"][top] > 0.75
    assert result.average(result.write_traffic, top) < 2.5
    # Overflow is handled without aborts: throughput never collapses.
    for name, row in result.throughput.items():
        assert row[top] > 0.2, f"{name} collapsed at {top}x"


# ----------------------------------------------------------------------
# Fig. 15 — log buffer access latency
# ----------------------------------------------------------------------
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=FIG15_VERDICT)
def test_fig15_no_workload_degrades_much(fig15_result):
    """No workload loses more than ~20% even at a 128-cycle buffer."""
    assert fig15_result.worst_degradation() < 0.20


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=FIG15_VERDICT)
def test_fig15_average_stays_flat(fig15_result):
    """The average at 128 cycles stays within a few percent of the
    8-cycle baseline (paper: a 3.3% drop)."""
    per_workload = [row[128] for row in fig15_result.throughput.values()]
    assert sum(per_workload) / len(per_workload) > 0.90


# ----------------------------------------------------------------------
# Tables I and IV — hardware overhead and battery requirements
# ----------------------------------------------------------------------
def test_table4_battery_requirements(executor):
    """Silo flushes 5.3125 KB at ~61 uJ into a ~0.17 mm^3
    supercapacitor; eADR needs orders of magnitude more (paper: 888x
    the volume)."""
    rows = run_experiment(table4.SPEC, executor=executor).rows
    silo = rows["Silo"]
    assert silo.flush_size_kb == pytest.approx(5.3125)
    assert silo.flush_energy_uj == pytest.approx(61.08, rel=0.01)
    assert silo.cap_volume_mm3 == pytest.approx(0.17, rel=0.02)
    assert rows["eADR"].cap_volume_mm3 / silo.cap_volume_mm3 > 500
    assert rows["BBB"].cap_volume_mm3 / silo.cap_volume_mm3 > 2


def test_table1_hardware_overhead(executor):
    result = run_experiment(table1.SPEC, executor=executor)
    assert "680B" in result.rows["Log buffer"]


# ----------------------------------------------------------------------
# Ablations of Silo's design choices (Section III-C, III-F)
# ----------------------------------------------------------------------
def test_ablation_log_merging():
    """Rewrite-heavy transactions without merging overflow the
    20-entry buffer (Section III-C, Fig. 7)."""
    trace = synthetic_trace(
        SyntheticTraceConfig(
            threads=2,
            transactions_per_thread=TRANSACTIONS,
            write_set_words=16,
            rewrite_fraction=1.0,  # every word stored twice
            arena_words=2048,
            seed=7,
        )
    )
    with_merge = run_silo(trace, 2, merging=True)
    without = run_silo(trace, 2, merging=False)
    assert without.stats.get("silo.overflows", 0) > with_merge.stats.get(
        "silo.overflows", 0
    )
    assert without.media_writes > with_merge.media_writes


def test_ablation_log_ignorance():
    """Array's swaps mostly rewrite identical padding: without log
    ignorance those silent stores become logged entries
    (Section III-C)."""
    trace = build_workload("array", threads=2, transactions=TRANSACTIONS)
    with_ign = run_silo(trace, 2, ignore_silent=True)
    without = run_silo(trace, 2, ignore_silent=False)

    def remaining_per_tx(result):
        return sum(r for _, r in result.tx_log_counts) / len(result.tx_log_counts)

    assert remaining_per_tx(without) > 4 * remaining_per_tx(with_ign)
    assert without.media_writes >= with_ign.media_writes


def test_ablation_overflow_batching():
    """Flushing overflowed undo logs one per request instead of 14 per
    on-PM line inflates the log-region traffic of large transactions
    (Section III-F)."""
    trace = synthetic_trace(
        SyntheticTraceConfig(
            threads=2,
            transactions_per_thread=max(TRANSACTIONS // 2, 20),
            write_set_words=60,  # 3x the log buffer
            arena_words=4096,
            seed=8,
        )
    )
    batched = run_silo(trace, 2, overflow_batch=14)
    single = run_silo(trace, 2, overflow_batch=1)
    assert single.stats.get("mc.writes.log") > 5 * batched.stats.get(
        "mc.writes.log"
    )
    assert single.media_writes > batched.media_writes


# ----------------------------------------------------------------------
# Endurance (Section I): fewer writes, longer PM lifetime
# ----------------------------------------------------------------------
def test_endurance_silo_outlives_base():
    """Under wear-leveling, lifetime is inversely proportional to the
    media writes per transaction: Silo's PM lasts over 4x Base's."""
    trace = build_workload("ycsb", threads=2, transactions=100)
    writes_per_tx = {}
    for scheme in ("base", "silo"):
        system = System(SystemConfig.table2(2))
        result = TransactionEngine(
            system, SchemeRegistry.create(scheme, system), trace
        ).run()
        wear = system.pm.media.wear_profile().values()
        writes_per_tx[scheme] = sum(wear) / result.committed_count
    assert writes_per_tx["base"] / writes_per_tx["silo"] > 4.0
