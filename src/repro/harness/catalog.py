"""The design-catalog study: every registered design on one grid.

Beyond the paper's five-scheme comparisons (``fig11``/``fig12``), this
study runs the *whole* catalog — the nine legacy designs plus the
policy-assembled entries (``aglog``, ``quadra1f``, ``trinity2f``,
``redolog4f``) — and reports the metrics the policy axes move:

* **media.waf** (log bytes per dirty data byte): the granularity
  axis's figure of merit.  The adaptive entry should sit at or below
  both the pure word and pure page designs.
* **throughput**: the fence-schedule axis's cost, the 1f/2f/4f ladder
  ordering commit stalls.

The first table is the catalog itself: each design's position on the
three policy axes, straight from its :class:`DesignSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.designs.scheme import SchemeRegistry
from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
    grids_from_campaign,
)
from repro.harness.runner import DEFAULT_TRANSACTIONS, DEFAULT_WORKLOADS

#: The full catalog, resolved at import (the registry is fully
#: populated by ``repro``'s package import).
ALL_DESIGNS = tuple(SchemeRegistry.names())

_AXES_COLUMNS = (
    "design",
    "granularity",
    "fences",
    "fence_schedule",
    "recovery",
    "columnar",
)


def catalog_rows(schemes: Sequence[str]) -> List[List[object]]:
    """One policy-axes row per design, from the specs."""
    rows: List[List[object]] = []
    for name in schemes:
        spec = SchemeRegistry._schemes[name].spec
        if spec is None:  # pragma: no cover - every registered design has one
            rows.append([name] + ["?"] * (len(_AXES_COLUMNS) - 1))
            continue
        row = spec.catalog_row()
        rows.append([row[column] for column in _AXES_COLUMNS])
    return rows


@dataclass
class CatalogResult(TabularResult):
    """Axes table plus per-core-count metric grids."""

    grids: Dict[int, object]
    schemes: Sequence[str]

    report_title = "Design catalog"

    def _metric_table(self, cores: int, metric: str, title: str) -> TableData:
        grid = self.grids[cores]
        rows = []
        for workload, per_scheme in grid.results.items():
            rows.append(
                [workload]
                + [
                    getattr(per_scheme[s], metric) if s in per_scheme else float("nan")
                    for s in self.schemes
                ]
            )
        return TableData.make(["workload"] + list(self.schemes), rows, title=title)

    def tables(self) -> List[TableData]:
        tables = [
            TableData.make(
                _AXES_COLUMNS,
                catalog_rows(self.schemes),
                title="Design catalog — policy axes",
            )
        ]
        for cores in sorted(self.grids):
            tables.append(
                self._metric_table(
                    cores,
                    "media_waf",
                    f"media.waf — log bytes / data byte ({cores} core(s))",
                )
            )
            tables.append(
                self._metric_table(
                    cores,
                    "throughput_tx_per_sec",
                    f"throughput — committed tx/s ({cores} core(s))",
                )
            )
        return tables


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="catalog",
        figure="extension",
        description="full design catalog: policy axes, media.waf, throughput",
        params=dict(
            core_counts=(1, 4),
            schemes=ALL_DESIGNS,
            workloads=DEFAULT_WORKLOADS,
            transactions=DEFAULT_TRANSACTIONS,
        ),
        smoke_params=dict(
            core_counts=(1,),
            schemes=ALL_DESIGNS,
            workloads=("hash",),
            transactions=15,
        ),
        axes=lambda p: (
            Axis("cores", p["core_counts"]),
            Axis("workload", p["workloads"]),
            Axis("scheme", p["schemes"]),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=pt["cores"], transactions=p["transactions"]
            ),
            scheme=pt["scheme"],
            cores=pt["cores"],
        ),
        assemble=lambda p, c: CatalogResult(
            grids=grids_from_campaign(c), schemes=tuple(p["schemes"])
        ),
    )
)
