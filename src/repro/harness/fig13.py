"""Fig. 13: total vs remaining on-chip log entries per transaction.

Runs Silo with an effectively unbounded log buffer so no overflow
disturbs the count, and reports per transaction how many logs would be
generated naively (one per store) versus how many remain after log
ignorance and log merging (Section III-C).  TPCC runs all five
transaction types here, as in Section VI-D.

Expected shape: a large fraction of logs removed on average (the paper
reports 64.3%), with Array extreme (~90% ignored because element swaps
rewrite identical padding) and the maximum remaining count — which
sizes the 20-entry log buffer — reached by Hash-like workloads.
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
)
from repro.harness.runner import DEFAULT_TRANSACTIONS

#: Benchmarks of Fig. 13, with TPCC in its all-five-types variant.
FIG13_WORKLOADS: Tuple[str, ...] = (
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
)

#: Entries in the measurement buffer: large enough to never overflow.
UNBOUNDED_ENTRIES = 1 << 14


@dataclass
class WorkloadLogCounts:
    """Per-transaction log statistics of one workload."""

    mean_total: float
    mean_remaining: float
    max_remaining: int

    @property
    def reduction(self) -> float:
        """Fraction of naive logs removed by ignorance + merging."""
        if not self.mean_total:
            return 0.0
        return 1.0 - self.mean_remaining / self.mean_total


def _log_counts(result) -> WorkloadLogCounts:
    pairs = result.tx_log_counts or [(0, 0)]
    totals = [t for t, _ in pairs]
    remainings = [r for _, r in pairs]
    return WorkloadLogCounts(
        mean_total=sum(totals) / len(totals),
        mean_remaining=sum(remainings) / len(remainings),
        max_remaining=max(remainings),
    )


@dataclass
class Fig13Result(TabularResult):
    counts: Dict[str, WorkloadLogCounts]

    @property
    def average_reduction(self) -> float:
        return sum(c.reduction for c in self.counts.values()) / len(self.counts)

    @property
    def overall_max_remaining(self) -> int:
        return max(c.max_remaining for c in self.counts.values())

    def tables(self) -> List[TableData]:
        rows: List[List[object]] = []
        for name, c in self.counts.items():
            rows.append(
                [name, c.mean_total, c.mean_remaining, c.max_remaining, c.reduction]
            )
        rows.append(
            [
                "Average",
                sum(c.mean_total for c in self.counts.values()) / len(self.counts),
                sum(c.mean_remaining for c in self.counts.values())
                / len(self.counts),
                self.overall_max_remaining,
                self.average_reduction,
            ]
        )
        return [
            TableData.make(
                ["workload", "total/tx", "remaining/tx", "max remaining", "reduction"],
                rows,
                title="Fig. 13 — on-chip log entries per transaction (Silo)",
            )
        ]


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig13",
        figure="Fig. 13",
        description="Total vs remaining on-chip log entries (Silo, "
        "unbounded buffer)",
        params=dict(
            threads=8, transactions=DEFAULT_TRANSACTIONS, workloads=FIG13_WORKLOADS
        ),
        smoke_params=dict(threads=1, transactions=10, workloads=("array", "hash")),
        axes=lambda p: (Axis("workload", p["workloads"]),),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"],
                threads=p["threads"],
                transactions=p["transactions"],
                **({"mix": "full"} if pt["workload"] == "tpcc" else {}),
            ),
            scheme="silo",
            cores=p["threads"],
            config=SystemConfig.table2(p["threads"]).with_log_buffer(
                entries=UNBOUNDED_ENTRIES
            ),
        ),
        assemble=lambda p, c: Fig13Result(
            counts={pt["workload"]: _log_counts(o.result) for pt, o in c.cells()}
        ),
    )
)
