"""The equivalence gate's hot-path row: every design bit-identical
between engines, and every design with a declared columnar profile
fully fused.  ``python -m repro.harness.equivalence`` runs the full
row; these tests run a reduced one."""

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.harness import equivalence
from repro.harness.equivalence import (
    EquivalenceReport,
    check_hotpath_cells,
    declares_columnar_profile,
)
from repro.sim.columnar import ColumnarEngine
from repro.sim.system import System

#: The designs with fused columnar kernels today.
FUSED = {"base", "fwb", "lad", "morlog", "silo", "swlog", "wrap"}


def _reduced_row(report, schemes):
    check_hotpath_cells(
        report, workloads=("ycsb",), schemes=schemes, cores=2, transactions=5
    )


def test_must_fuse_comes_from_the_declared_profile():
    system = System(SystemConfig.table2(1))
    fused = {
        name
        for name in SchemeRegistry.names()
        if declares_columnar_profile(SchemeRegistry.create(name, system))
    }
    assert fused == FUSED


def test_reduced_row_passes_and_records_coverage():
    report = EquivalenceReport(smoke=True)
    _reduced_row(report, ["base", "aglog"])
    assert report.ok, report.mismatches
    assert report.hotpath_cells == 2
    assert report.hotpath_fast_fraction == {"base": 1.0, "aglog": 0.0}
    assert "hot-path fast_fraction: aglog 0.000, base 1.000" in (
        report.format_report()
    )


def test_lost_fusion_fails_only_profile_designs(monkeypatch):
    real_stats = ColumnarEngine.engine_stats

    def half_fused(self):
        return dict(real_stats(self), fast_fraction=0.5)

    monkeypatch.setattr(ColumnarEngine, "engine_stats", half_fused)
    report = EquivalenceReport(smoke=True)
    _reduced_row(report, ["base", "aglog"])
    assert not report.ok
    assert len(report.mismatches) == 1
    assert report.mismatches[0].startswith("hotpath ycsb@2/base: fast_fraction")


def test_divergence_fails_every_design(monkeypatch):
    real_run = ColumnarEngine.run

    def late(self):
        result = real_run(self)
        result.end_cycle += 1
        return result

    monkeypatch.setattr(ColumnarEngine, "run", late)
    report = EquivalenceReport(smoke=True)
    _reduced_row(report, ["base", "aglog"])
    assert [m.split(":")[0] for m in report.mismatches] == [
        "hotpath ycsb@2/base",
        "hotpath ycsb@2/aglog",
    ]


def test_row_matches_the_documented_grid():
    assert equivalence.HOTPATH_WORKLOADS == ("ycsb", "tpcc")
    assert (equivalence.HOTPATH_CORES, equivalence.HOTPATH_TRANSACTIONS) == (8, 40)
