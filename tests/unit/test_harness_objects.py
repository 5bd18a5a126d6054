"""Unit tests for the harness result objects' accessors."""

import pytest

from repro.harness.experiments.presentation import GridResult
from repro.harness.fig13 import Fig13Result, WorkloadLogCounts
from repro.harness.fig15 import Fig15Result
from repro.sim.results import RunResult
from repro.common.config import SystemConfig
from repro.common.stats import Stats


def run_result(scheme="silo", cycles=100, writes=10):
    stats = Stats()
    stats.add("media.sector_writes", writes)
    return RunResult(
        scheme=scheme,
        trace_name="t",
        config=SystemConfig.table2(1),
        stats=stats,
        committed={(0, 0)},
        end_cycle=cycles,
        total_transactions=1,
    )


class TestGridResult:
    def make(self):
        grid = GridResult(cores=1)
        grid.results["hash"] = {
            "base": run_result("base", cycles=100, writes=20),
            "silo": run_result("silo", cycles=50, writes=5),
        }
        return grid

    def test_metric_accessor(self):
        grid = self.make()
        assert grid.metric("hash", "silo", "media_writes") == 5
        assert grid.metric("hash", "base", "end_cycle") == 100

    def test_workloads_and_schemes(self):
        grid = self.make()
        assert grid.workloads() == ["hash"]
        assert grid.schemes() == ["base", "silo"]


class TestFig13Objects:
    def test_reduction_formula(self):
        counts = WorkloadLogCounts(
            mean_total=10.0, mean_remaining=4.0, max_remaining=8
        )
        assert counts.reduction == pytest.approx(0.6)

    def test_zero_total_reduction(self):
        counts = WorkloadLogCounts(0.0, 0.0, 0)
        assert counts.reduction == 0.0

    def test_result_aggregates(self):
        result = Fig13Result(
            counts={
                "a": WorkloadLogCounts(10.0, 5.0, 7),
                "b": WorkloadLogCounts(20.0, 4.0, 20),
            }
        )
        assert result.average_reduction == pytest.approx((0.5 + 0.8) / 2)
        assert result.overall_max_remaining == 20
        report = result.format_report()
        assert "Average" in report


class TestFig15Objects:
    def test_worst_degradation(self):
        result = Fig15Result(
            throughput={
                "a": {8: 1.0, 128: 0.9},
                "b": {8: 1.0, 128: 0.97},
            },
            latencies=(8, 128),
        )
        assert result.worst_degradation() == pytest.approx(0.1)
        assert "128cy" in result.format_report()

    def test_no_degradation(self):
        result = Fig15Result(
            throughput={"a": {8: 1.0, 128: 1.0}}, latencies=(8, 128)
        )
        assert result.worst_degradation() == 0.0
