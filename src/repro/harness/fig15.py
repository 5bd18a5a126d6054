"""Fig. 15: sensitivity to the log buffer access latency.

Sweeps the buffer latency from 8 to 128 cycles (covering SRAM through
slower buffer technologies) and reports Silo's throughput normalized
to the 8-cycle configuration.

Expected shape (Section VI-G): essentially flat — the CPU store never
waits to write the buffer and the controller reads it off the critical
path, so even a 128-cycle buffer costs only a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
    normalize_series,
)

FIG15_WORKLOADS: Tuple[str, ...] = (
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
)

LATENCIES: Tuple[int, ...] = tuple(range(8, 129, 24))


@dataclass
class Fig15Result(TabularResult):
    """``throughput[workload][latency]`` normalized to the first
    latency point."""

    throughput: Dict[str, Dict[int, float]]
    latencies: Tuple[int, ...]

    def worst_degradation(self) -> float:
        """Largest relative slowdown across all points."""
        worst = 0.0
        for row in self.throughput.values():
            worst = max(worst, 1.0 - min(row.values()))
        return worst

    def tables(self) -> List[TableData]:
        rows: List[List[object]] = [
            [name] + [row[lat] for lat in self.latencies]
            for name, row in self.throughput.items()
        ]
        return [
            TableData.make(
                ["workload"] + [f"{lat}cy" for lat in self.latencies],
                rows,
                title="Fig. 15 — normalized throughput vs log buffer latency (Silo)",
            )
        ]


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig15",
        figure="Fig. 15",
        description="Throughput vs log buffer access latency (Silo)",
        params=dict(
            threads=8,
            transactions=150,
            workloads=FIG15_WORKLOADS,
            latencies=LATENCIES,
        ),
        smoke_params=dict(
            threads=1, transactions=10, workloads=("hash",), latencies=(8, 64)
        ),
        axes=lambda p: (
            Axis("workload", p["workloads"]),
            Axis("latency", p["latencies"]),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=p["threads"], transactions=p["transactions"]
            ),
            scheme="silo",
            cores=p["threads"],
            config=SystemConfig.table2(p["threads"]).with_log_buffer(
                access_latency_cycles=pt["latency"]
            ),
        ),
        assemble=lambda p, c: Fig15Result(
            throughput={
                name: normalize_series(
                    {
                        lat: c.run_result(
                            workload=name, latency=lat
                        ).throughput_tx_per_sec
                        for lat in p["latencies"]
                    }
                )
                for name in p["workloads"]
            },
            latencies=tuple(p["latencies"]),
        ),
    )
)
