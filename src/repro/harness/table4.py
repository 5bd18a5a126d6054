"""Table IV: battery requirements of eADR, BBB and Silo (8 cores).

Analytic (Section VI-E): flush size -> flush energy at 11.228 nJ/B ->
supercapacitor and lithium thin-film volume/area from their energy
densities.  Expected shape: Silo's battery orders of magnitude below
eADR and well below BBB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.battery import BatteryRequirement, table4
from repro.harness.experiments import (
    REGISTRY,
    ExperimentSpec,
    TableData,
    TabularResult,
)


@dataclass
class Table4Result(TabularResult):
    rows: Dict[str, BatteryRequirement]

    def tables(self) -> List[TableData]:
        table: List[List[object]] = []
        for name, req in self.rows.items():
            table.append(
                [
                    name,
                    req.flush_size_kb,
                    req.flush_energy_uj,
                    req.cap_volume_mm3,
                    req.cap_area_mm2,
                    req.li_volume_mm3,
                    req.li_area_mm2,
                ]
            )
        return [
            TableData.make(
                [
                    "system",
                    "flush size (KB)",
                    "flush energy (uJ)",
                    "Cap (mm^3)",
                    "Cap (mm^2)",
                    "Li (mm^3)",
                    "Li (mm^2)",
                ],
                table,
                title="Table IV — battery requirements (8 cores)",
            )
        ]


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="table4",
        figure="Table IV",
        description="Battery requirements of eADR/BBB/Silo (analytic)",
        params=dict(cores=8),
        axes=lambda p: (),
        cell=lambda p, pt: None,
        assemble=lambda p, c: Table4Result(rows=table4(cores=p["cores"])),
    )
)
