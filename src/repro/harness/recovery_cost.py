"""Recovery-cost comparison (extension beyond the paper's figures).

Crashes each design at the same point of the same workload and reports
how much log-region state recovery had to scan and apply, plus a
first-order latency estimate (sequential scan reads + replay/revoke
writes).  The expected shape follows the designs' logging volume:

* Silo scans only what its battery flushed at the crash — the open
  transactions' merged undo logs (plus any overflow spills);
* LAD scans only slow-mode fallback logs (usually nothing);
* Base/FWB/MorLog scan the logs persisted during the run that were not
  yet truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
)
from repro.harness.runner import DEFAULT_SCHEMES
from repro.sim.crash import CrashPlan


@dataclass
class RecoveryCostRow:
    scheme: str
    scanned: int
    replayed: int
    revoked: int
    discarded: int
    estimated_us: float
    consistent: bool


@dataclass
class RecoveryCostResult(TabularResult):
    workload: str
    crash_at: int
    rows: List[RecoveryCostRow]

    def row(self, scheme: str) -> RecoveryCostRow:
        for row in self.rows:
            if row.scheme == scheme:
                return row
        raise KeyError(scheme)

    def tables(self) -> List[TableData]:
        table = [
            [
                row.scheme,
                row.scanned,
                row.replayed,
                row.revoked,
                row.discarded,
                row.estimated_us,
                "yes" if row.consistent else "NO",
            ]
            for row in self.rows
        ]
        return [
            TableData.make(
                [
                    "scheme",
                    "logs scanned",
                    "replayed",
                    "revoked",
                    "discarded",
                    "est. recovery (us)",
                    "consistent",
                ],
                table,
                title=(
                    f"Recovery cost — {self.workload}, crash at op {self.crash_at}"
                ),
            )
        ]


def _workload_spec(p) -> WorkloadSpec:
    return WorkloadSpec.make(
        p["workload"], threads=p["threads"], transactions=p["transactions"]
    )


def _crash_at(p) -> int:
    # The trace build is memoized per process, so recomputing the
    # crash point for every scheme's cell costs one build total.
    return int(_workload_spec(p).build().total_ops * p["crash_fraction"])


def _row(point, outcome) -> RecoveryCostRow:
    report = outcome.result.recovery
    return RecoveryCostRow(
        scheme=point["scheme"],
        scanned=report.scanned,
        replayed=report.replayed,
        revoked=report.revoked,
        discarded=report.discarded,
        estimated_us=report.estimated_ns / 1000.0,
        consistent=not outcome.mismatches,
    )


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="recovery_cost",
        figure="extension",
        description="Crash every design at the same point; compare "
        "recovery scan/replay volume",
        params=dict(
            workload="hash",
            threads=2,
            transactions=60,
            crash_fraction=0.6,
            schemes=DEFAULT_SCHEMES,
            config=None,
        ),
        smoke_params=dict(transactions=30),
        axes=lambda p: (Axis("scheme", p["schemes"]),),
        cell=lambda p, pt: CellSpec(
            workload=_workload_spec(p),
            scheme=pt["scheme"],
            cores=p["threads"],
            config=p["config"],
            crash_plan=CrashPlan(at_op=_crash_at(p)),
            verify=True,
        ),
        assemble=lambda p, c: RecoveryCostResult(
            workload=p["workload"],
            crash_at=_crash_at(p),
            rows=[_row(pt, o) for pt, o in c.cells()],
        ),
    )
)
