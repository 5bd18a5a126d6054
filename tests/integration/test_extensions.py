"""Tests for the extensions beyond the paper's core evaluation:
software logging, the MC sweep and report charts."""

import pytest

from repro.common.config import SystemConfig
from repro.harness import mcsweep
from repro.harness.experiments import run_experiment
from repro.harness.report import format_bars, format_grouped_bars
from repro.sim.engine import run_trace
from repro.workloads import build_workload


class TestSoftwareLoggingMotivation:
    def test_swlog_far_below_hardware_logging(self):
        """Section II-B: software logging loses most of the hardware
        baseline's throughput (the paper cites up to 70%)."""
        trace = build_workload("hash", threads=2, transactions=60)
        config = SystemConfig.table2(2)
        sw = run_trace(trace, scheme="swlog", config=config)
        hw = run_trace(trace, scheme="base", config=config)
        assert sw.throughput_tx_per_sec < 0.6 * hw.throughput_tx_per_sec

    def test_motivation_chain_ordering(self):
        """The full argument: swlog << base < morlog < silo."""
        trace = build_workload("hash", threads=2, transactions=60)
        config = SystemConfig.table2(2)
        thr = {
            scheme: run_trace(trace, scheme=scheme, config=config).throughput_tx_per_sec
            for scheme in ("swlog", "base", "morlog", "silo")
        }
        assert thr["swlog"] < thr["base"] < thr["morlog"] < thr["silo"]


class TestMCSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            mcsweep.SPEC,
            threads=2,
            transactions=25,
            workloads=("hash",),
            channels=(1, 2),
        )

    def test_silo_advantage_persists(self, result):
        assert result.min_advantage() > 1.5

    def test_report(self, result):
        report = result.format_report()
        assert "MC sweep" in report
        assert "1 MC(s)" in report and "2 MC(s)" in report


class TestCharts:
    def test_format_bars_scales_to_peak(self):
        text = format_bars({"a": 1.0, "b": 2.0}, title="t", width=10)
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[2].count("#") == 10       # peak fills the width
        assert lines[1].count("#") == 5

    def test_format_bars_empty(self):
        assert "(no data)" in format_bars({})

    def test_format_bars_zero_value_has_no_bar(self):
        text = format_bars({"z": 0.0, "a": 1.0})
        zero_line = [l for l in text.splitlines() if l.startswith("z")][0]
        assert "#" not in zero_line

    def test_grouped_bars_shared_scale(self):
        text = format_grouped_bars(
            {"g1": {"x": 1.0}, "g2": {"x": 4.0}}, width=8
        )
        bars = [l for l in text.splitlines() if "|" in l]
        assert bars[0].count("#") == 2
        assert bars[1].count("#") == 8

    def test_figure_charts_render(self):
        from repro.harness import fig11, fig12

        r11 = run_experiment(
            fig11.SPEC,
            core_counts=(1,), schemes=("base", "silo"), workloads=("hash",),
            transactions=10,
        )
        r12 = run_experiment(
            fig12.SPEC,
            core_counts=(1,), schemes=("base", "silo"), workloads=("hash",),
            transactions=10,
        )
        assert "#" in r11.format_chart()
        assert "#" in r12.format_chart()
