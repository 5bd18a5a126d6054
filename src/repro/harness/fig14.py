"""Fig. 14: Silo processing large transactions (log overflow).

For each benchmark the per-transaction write set is scaled to 1x, 2x,
4x, 8x and 16x the log buffer capacity by batching more data-structure
operations into one transaction.  Throughput and PM write traffic are
normalized to the 1x configuration of the same benchmark.

Expected shape (Section VI-F): throughput dips only mildly (the paper
reports -7.4% on average at 16x) because overflowed undo logs flush in
parallel with new log generation; write traffic grows but stays small
(up to ~1.9x on average) thanks to batched 14-entry overflow flushes.
Array stays flat (most of its logs are ignored); TPCC/YCSB stay stable
thanks to locality/merging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
    normalize_series,
)

FIG14_WORKLOADS: Tuple[str, ...] = (
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
)

MULTIPLIERS: Tuple[int, ...] = (1, 2, 4, 8, 16)


@dataclass
class Fig14Result(TabularResult):
    """``throughput[workload][multiplier]`` etc., normalized to 1x."""

    throughput: Dict[str, Dict[int, float]]
    write_traffic: Dict[str, Dict[int, float]]
    multipliers: Tuple[int, ...] = MULTIPLIERS

    def average(self, table: Dict[str, Dict[int, float]], mult: int) -> float:
        return sum(row[mult] for row in table.values()) / len(table)

    def tables(self) -> List[TableData]:
        out: List[TableData] = []
        for title, table in (
            ("Fig. 14a — normalized transaction throughput", self.throughput),
            ("Fig. 14b — normalized PM write traffic", self.write_traffic),
        ):
            rows: List[List[object]] = [
                [name] + [row[m] for m in self.multipliers]
                for name, row in table.items()
            ]
            rows.append(
                ["Average"] + [self.average(table, m) for m in self.multipliers]
            )
            out.append(
                TableData.make(
                    ["workload"] + [f"{m}x" for m in self.multipliers],
                    rows,
                    title=title,
                )
            )
        return out


def _assemble(p, c) -> Fig14Result:
    throughput: Dict[str, Dict[int, float]] = {}
    traffic: Dict[str, Dict[int, float]] = {}
    for name in p["workloads"]:
        results = {
            m: c.run_result(workload=name, multiplier=m) for m in p["multipliers"]
        }
        throughput[name] = normalize_series(
            # ops rate: tx/sec scaled by the ops batched into each tx
            {m: r.throughput_tx_per_sec * m for m, r in results.items()}
        )
        traffic[name] = normalize_series(
            {m: r.media_writes / max(m, 1) for m, r in results.items()}  # per op
        )
    return Fig14Result(
        throughput=throughput,
        write_traffic=traffic,
        multipliers=tuple(p["multipliers"]),
    )


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig14",
        figure="Fig. 14",
        description="Silo under large transactions (1x-16x write sets)",
        params=dict(
            threads=8,
            transactions=100,
            workloads=FIG14_WORKLOADS,
            multipliers=MULTIPLIERS,
        ),
        smoke_params=dict(
            threads=1, transactions=10, workloads=("hash",), multipliers=(1, 2)
        ),
        axes=lambda p: (
            Axis("workload", p["workloads"]),
            Axis("multiplier", p["multipliers"]),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"],
                threads=p["threads"],
                transactions=p["transactions"],
                ops_per_tx=pt["multiplier"],
            ),
            scheme="silo",
            cores=p["threads"],
        ),
        assemble=_assemble,
    )
)
