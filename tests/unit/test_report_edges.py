"""Edge cases of the plain-text report formatters.

Covers the degenerate shapes experiments can legitimately emit: empty
grids, a single scheme, and NaN metric cells (``writes_per_transaction``
is NaN on crash runs with zero commits) — NaN must render as ``n/a`` in
every formatter, never crash one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List

import pytest

from repro.harness.experiments.presentation import (
    TableData,
    TabularResult,
    normalized_table,
    render,
    tables_payload,
    tables_to_csv,
)
from repro.harness.report import format_bars, format_grouped_bars, format_table

NAN = float("nan")


def render_normalized(normalized, schemes, title):
    """A normalized table rendered the way every report renders it."""
    table = normalized_table(normalized, schemes, title)
    return format_table(table.headers, table.rows, title=table.title)


class TestEmptyGrid:
    def test_table_with_no_rows_is_just_header(self):
        out = format_table(["workload", "writes"], [])
        lines = out.splitlines()
        assert lines[0].startswith("workload")
        assert len(lines) == 2  # header + separator, no data rows

    def test_normalized_with_no_workloads(self):
        out = render_normalized({}, ["base", "silo"], title="empty")
        assert out.splitlines()[0] == "empty"
        assert "base" in out and "silo" in out

    def test_bars_with_no_values(self):
        assert format_bars({}) == "(no data)"
        assert format_bars({}, title="t") == "t\n(no data)"

    def test_grouped_bars_with_no_groups(self):
        assert format_grouped_bars({}) == ""
        assert format_grouped_bars({}, title="t") == "t"

    def test_grouped_bars_with_an_empty_group(self):
        out = format_grouped_bars({"1 core(s)": {}})
        assert out == "1 core(s):"


class TestSingleScheme:
    def test_normalized_single_scheme(self):
        out = render_normalized(
            {"hash": {"base": 1.0}}, ["base"], title="one scheme"
        )
        assert "base" in out
        assert "1.000" in out

    def test_bars_single_value_fills_the_width(self):
        out = format_bars({"base": 2.5}, width=10)
        assert "#" * 10 in out
        assert "2.500" in out


class TestNaNCells:
    """``writes_per_transaction`` NaN must read ``n/a`` everywhere."""

    def test_table_renders_nan_as_na(self):
        out = format_table(["workload", "writes/tx"], [["hash", NAN]])
        assert "n/a" in out
        assert "nan" not in out.lower().replace("n/a", "")

    def test_normalized_missing_scheme_reads_na(self):
        out = render_normalized(
            {"hash": {"base": 1.0}}, ["base", "silo"], title="t"
        )
        assert "n/a" in out

    def test_bars_nan_has_no_bar_but_reads_na(self):
        out = format_bars({"crashed": NAN, "clean": 2.0}, width=8)
        crashed, clean = out.splitlines()
        assert "n/a" in crashed and "#" not in crashed
        assert "#" * 8 in clean  # peak ignores the NaN cell

    def test_bars_all_nan_does_not_crash(self):
        out = format_bars({"a": NAN, "b": NAN})
        assert out.count("n/a") == 2

    def test_grouped_bars_nan(self):
        out = format_grouped_bars({"g": {"a": NAN, "b": 1.0}})
        nan_line = next(line for line in out.splitlines() if " a " in line)
        assert "n/a" in nan_line and "#" not in nan_line


@dataclass
class _NaNResult(TabularResult):
    """A minimal tabular result carrying one NaN metric cell."""

    def tables(self) -> List[TableData]:
        return [
            TableData.make(
                ["workload", "writes_per_transaction"],
                [["hash", NAN], ["queue", 3.0]],
                title="writes per committed transaction",
            )
        ]


class TestNaNThroughEveryFormatter:
    def test_report(self):
        assert "n/a" in render(_NaNResult(), "report")

    def test_chart(self):
        chart = render(_NaNResult(), "chart")
        nan_line = next(line for line in chart.splitlines() if "hash" in line)
        assert "n/a" in nan_line and "#" not in nan_line

    def test_csv(self):
        csv_text = render(_NaNResult(), "csv")
        assert "hash,n/a" in csv_text
        assert "queue,3.0" in csv_text

    def test_json_is_null_and_parseable(self):
        payload = json.loads(render(_NaNResult(), "json"))
        (table,) = payload["tables"]
        assert table["rows"][0] == ["hash", None]
        assert table["rows"][1] == ["queue", 3.0]

    def test_tables_payload_matches_render(self):
        assert tables_payload(_NaNResult().tables())[0]["rows"][0][1] is None

    def test_csv_helper_directly(self):
        assert "hash,n/a" in tables_to_csv(_NaNResult().tables())

    def test_unknown_format_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="format"):
            render(_NaNResult(), "pdf")


def test_run_result_writes_per_transaction_nan_contract():
    """A crash run with traffic but no commits yields NaN, and that NaN
    flows to ``n/a`` in a rendered table."""
    from repro.common.config import SystemConfig
    from repro.sim.results import RunResult, Stats

    stats = Stats()
    stats.add("media.sector_writes", 7)
    result = RunResult(
        scheme="silo",
        trace_name="hash",
        config=SystemConfig.table2(1),
        stats=stats,
    )
    assert math.isnan(result.writes_per_transaction)
    out = format_table(
        ["scheme", "writes/tx"], [[result.scheme, result.writes_per_transaction]]
    )
    assert "n/a" in out
