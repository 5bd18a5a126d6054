"""Harness-level observability: the trace command's captures and
per-phase cycle attribution, and the faultsweep metrics roll-up."""

import json

from repro.harness import faultsweep, tracecmd


class TestTraceCommand:
    def test_single_scheme_writes_one_trace(self, tmp_path):
        out = tmp_path / "TRACE.json"
        result = tracecmd.run(
            scheme="silo", workload="hash", transactions=8, output=str(out)
        )
        assert [run.scheme for run in result.runs] == ["silo"]
        data = json.loads(out.read_text())
        assert data["traceEvents"]
        assert "silo" in result.format_report()

    def test_report_attributes_cycles_to_phases(self, tmp_path):
        result = tracecmd.run(
            scheme="silo",
            workload="hash",
            transactions=6,
            output=str(tmp_path / "TRACE.json"),
        )
        [run] = result.runs
        assert run.result.metrics.phases["op.store"] > 0
        report = result.format_report()
        assert "silo/hash — cycle attribution by phase" in report
        assert "op.store" in report

    def test_all_schemes_write_per_scheme_files(self, tmp_path):
        out = tmp_path / "TRACE.json"
        result = tracecmd.run(
            scheme="all", workload="hash", transactions=6, output=str(out)
        )
        assert len(result.runs) >= 8
        for run in result.runs:
            data = json.loads(open(run.path).read())
            body = [e for e in data["traceEvents"] if e["ph"] != "M"]
            assert body, f"{run.scheme} trace is empty"


class TestFaultsweepObservability:
    def test_campaign_report_carries_metrics_and_trace(self, tmp_path):
        out = tmp_path / "FAULTSWEEP.json"
        trace_out = tmp_path / "FAULTSWEEP_trace.json"
        result = faultsweep.run(
            workloads=("hash",),
            schemes=("silo",),
            points_per_pair=4,
            transactions=4,
            output=str(out),
            trace_output=str(trace_out),
        )
        assert result.passed
        record = json.loads(out.read_text())
        assert record["metrics"]["histograms"]
        assert record["metrics"]["phases"]
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]
        assert str(trace_out) in result.format_report()
