"""Fig. 4: the write size (in bytes) in one transaction.

Builds all eleven workloads and reports the mean bytes written per
transaction.  The paper's observation to confirm: write sizes are
generally below 0.5 KB, i.e. real PM transactions have small write
sets, so a 20-entry on-chip log buffer suffices (Section II-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
)
from repro.workloads.registry import FIG4_WORKLOADS


@dataclass
class Fig4Result(TabularResult):
    """Mean write bytes per transaction, per workload."""

    write_sizes: Dict[str, float]

    @property
    def average(self) -> float:
        if not self.write_sizes:
            raise ConfigError(
                "fig4 ran with an empty workload list; there is no "
                "average write size to report"
            )
        return sum(self.write_sizes.values()) / len(self.write_sizes)

    def tables(self) -> List[TableData]:
        rows: List[List[object]] = [
            [name, size] for name, size in self.write_sizes.items()
        ]
        rows.append(["Average", self.average])
        return [
            TableData.make(
                ["workload", "write size (B) per transaction"],
                rows,
                title="Fig. 4 — write size per transaction",
            )
        ]


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig4",
        figure="Fig. 4",
        description="Mean write size (bytes) per transaction, all workloads",
        params=dict(
            threads=2, transactions=300, workloads=tuple(FIG4_WORKLOADS)
        ),
        smoke_params=dict(threads=1, transactions=10, workloads=("hash", "bank")),
        axes=lambda p: (Axis("workload", p["workloads"]),),
        # scheme=None cells: no simulation runs, but the trace builds
        # still fan out (and cache).
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=p["threads"], transactions=p["transactions"]
            ),
            scheme=None,
            cores=p["threads"],
        ),
        assemble=lambda p, c: Fig4Result(
            write_sizes={
                pt["workload"]: o.result.mean_write_size_bytes
                for pt, o in c.cells()
            }
        ),
    )
)
