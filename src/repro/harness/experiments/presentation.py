"""Shared presentation layer for experiment results.

An ordered list of :class:`TableData` is the common currency every
experiment result speaks: :class:`TabularResult` turns it into the
plain-text report (byte-identical to the historical per-module
formatting), an ASCII chart, JSON or CSV through one set of
formatters.  The normalization helpers that ``fig11``/``fig12`` used
to copy-paste live here too.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.harness.report import format_bars, format_grouped_bars, format_table
from repro.sim.results import RunResult


# ----------------------------------------------------------------------
# The common currency: ordered tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableData:
    """One titled table: the unit every formatter consumes."""

    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    @classmethod
    def make(
        cls,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        title: str = "",
    ) -> "TableData":
        return cls(
            title=title,
            headers=tuple(str(h) for h in headers),
            rows=tuple(tuple(row) for row in rows),
        )


class TabularResult:
    """Mixin giving a result every output format from one ``tables()``.

    ``format_report`` reproduces the historical layout exactly: each
    table rendered by :func:`~repro.harness.report.format_table`,
    joined by blank lines.
    """

    def tables(self) -> List[TableData]:
        raise NotImplementedError

    def format_report(self) -> str:
        return "\n\n".join(
            format_table(t.headers, t.rows, title=t.title) for t in self.tables()
        )

    def format_chart(self) -> str:
        return "\n\n".join(table_chart(t) for t in self.tables())

    def to_json_payload(self) -> List[Dict[str, object]]:
        return tables_payload(self.tables())

    def to_csv(self) -> str:
        return tables_to_csv(self.tables())


def render(result, fmt: str = "report") -> str:
    """Render any experiment result in one of the four formats.

    ``result`` needs ``format_report`` (every result has one);
    chart/json/csv use the :class:`TabularResult` protocol when
    available and degrade to the report text otherwise.
    """
    if fmt == "report":
        return result.format_report()
    if fmt == "chart":
        if hasattr(result, "format_chart"):
            return result.format_chart()
        return result.format_report()
    if fmt == "json":
        import json

        return json.dumps(
            {"tables": tables_payload(result_tables(result))},
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        return tables_to_csv(result_tables(result))
    raise ConfigError(
        f"unknown render format {fmt!r}: expected report, chart, json or csv"
    )


def result_tables(result) -> List[TableData]:
    if isinstance(result, TabularResult) or hasattr(result, "tables"):
        return list(result.tables())
    raise ConfigError(
        f"{type(result).__name__} does not expose tables(); only the "
        "plain report format is available"
    )


# ----------------------------------------------------------------------
# JSON / CSV / chart renderers
# ----------------------------------------------------------------------
def json_cell(value: object) -> object:
    """One table cell as a JSON-compatible value (NaN becomes null)."""
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def tables_payload(tables: Sequence[TableData]) -> List[Dict[str, object]]:
    return [
        {
            "title": t.title,
            "headers": list(t.headers),
            "rows": [[json_cell(v) for v in row] for row in t.rows],
        }
        for t in tables
    ]


def _csv_cell(value: object) -> object:
    # The undefined-ratio NaN renders as n/a in *every* formatter, the
    # CSV included — an empty or "nan" field reads as missing data.
    if isinstance(value, float) and value != value:
        return "n/a"
    return value

def tables_to_csv(tables: Sequence[TableData]) -> str:
    """CSV rendering: one ``# title`` comment line per table, then the
    header row and data rows; tables separated by a blank line."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for index, table in enumerate(tables):
        if index:
            buffer.write("\n")
        if table.title:
            buffer.write(f"# {table.title}\n")
        writer.writerow(table.headers)
        for row in table.rows:
            writer.writerow([_csv_cell(v) for v in row])
    return buffer.getvalue()


def _numeric_columns(table: TableData) -> List[int]:
    picked = []
    for i in range(1, len(table.headers)):
        if any(
            isinstance(row[i], (int, float)) and not isinstance(row[i], bool)
            for row in table.rows
            if len(row) > i
        ):
            picked.append(i)
    return picked


def table_chart(table: TableData, width: int = 40) -> str:
    """Generic ASCII chart of one table: the first column labels the
    rows; one bar per numeric column (grouped when there are several)."""
    columns = _numeric_columns(table)
    if not columns:
        return format_table(table.headers, table.rows, title=table.title)
    if len(columns) == 1:
        values = {
            str(row[0]): row[columns[0]]
            for row in table.rows
            if isinstance(row[columns[0]], (int, float))
        }
        return format_bars(values, title=table.title, width=width)
    groups = {
        str(row[0]): {
            table.headers[i]: row[i]
            for i in columns
            if isinstance(row[i], (int, float)) and not isinstance(row[i], bool)
        }
        for row in table.rows
    }
    return format_grouped_bars(groups, title=table.title, width=width)


# ----------------------------------------------------------------------
# Normalization helpers (the one copy)
# ----------------------------------------------------------------------
@dataclass
class GridResult:
    """Results of a (workload, scheme) grid at one core count."""

    cores: int
    #: ``results[workload][scheme]``
    results: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)

    def metric(self, workload: str, scheme: str, name: str) -> float:
        result = self.results[workload][scheme]
        return float(getattr(result, name))

    def workloads(self) -> List[str]:
        return list(self.results)

    def schemes(self) -> List[str]:
        first = next(iter(self.results.values()))
        return list(first)


def normalize_to(
    grid: GridResult, metric: str, baseline: str = "base"
) -> Dict[str, Dict[str, float]]:
    """``{workload: {scheme: metric / metric(baseline)}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for workload, per_scheme in grid.results.items():
        if baseline not in per_scheme:
            raise ConfigError(
                f"cannot normalize {workload!r} to {baseline!r}: the grid "
                f"has no {baseline!r} result for it"
            )
        base_value = float(getattr(per_scheme[baseline], metric))
        out[workload] = {
            scheme: (float(getattr(result, metric)) / base_value if base_value else 0.0)
            for scheme, result in per_scheme.items()
        }
    return out


def add_average(normalized: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Append the cross-workload arithmetic mean (the paper's
    "Average" group) to a normalized table."""
    if not normalized:
        raise ConfigError(
            "cannot average an empty normalized table: the experiment "
            "ran with no workloads"
        )
    schemes = next(iter(normalized.values())).keys()
    out = dict(normalized)
    out["average"] = {
        scheme: sum(row[scheme] for row in normalized.values()) / len(normalized)
        for scheme in schemes
    }
    return out


def normalize_series(series: Mapping, baseline=None) -> Dict:
    """Normalize a ``{key: value}`` series to one of its points (the
    first key by default) — the Fig. 14/15 "normalized to 1x" shape."""
    if not series:
        raise ConfigError("cannot normalize an empty series")
    keys = list(series)
    base = series[keys[0] if baseline is None else baseline]
    return {k: (v / base if base else 0.0) for k, v in series.items()}


def normalized_table(
    normalized: Mapping[str, Mapping[str, float]],
    schemes: Sequence[str],
    title: str,
) -> TableData:
    """The ``{workload: {scheme: value}}`` table in plotting order; a
    scheme missing from a row reads ``n/a``."""
    rows = [
        [workload] + [per_scheme.get(scheme, float("nan")) for scheme in schemes]
        for workload, per_scheme in normalized.items()
    ]
    return TableData.make(["workload"] + list(schemes), rows, title=title)


@dataclass
class NormalizedGridsResult(TabularResult):
    """Grids of one metric normalized to Base, one table per core count.

    Subclasses pin the metric and the titles (``fig11``/``fig12`` used
    to carry copy-pasted bodies of everything below).
    """

    grids: Dict[int, GridResult]

    metric: ClassVar[str] = ""
    report_title: ClassVar[str] = ""
    chart_title: ClassVar[str] = ""

    def normalized(self, cores: int) -> Dict[str, Dict[str, float]]:
        return add_average(normalize_to(self.grids[cores], self.metric))

    def tables(self) -> List[TableData]:
        return [
            normalized_table(
                self.normalized(cores),
                schemes=list(self.grids[cores].schemes()),
                title=f"{self.report_title} ({cores} core(s))",
            )
            for cores in sorted(self.grids)
        ]

    def format_chart(self) -> str:
        """ASCII grouped bars of the cross-workload averages, one group
        per core count (the shape of the paper's figure)."""
        groups = {
            f"{cores} core(s)": self.normalized(cores)["average"]
            for cores in sorted(self.grids)
        }
        return format_grouped_bars(groups, title=self.chart_title)
