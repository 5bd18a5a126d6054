"""Replay one crash-verification cell in isolation.

``silo-repro replay --jobs 1 --spec '<json>'`` re-executes exactly the
cell a failing crashtest, faultsweep or litmus campaign printed (same
workload recipe, scheme, crash point and fault plan) in the calling
process, then prints the full verdict: recovery report,
injected/reported fault accounting, oracle mismatches.  The verdict is
the campaign's own :func:`repro.harness.verify.judge` (with the litmus
oracle registered), so a failure is reproducible without re-running the
campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.executor import (
    CellOutcome,
    CellSpec,
    cell_spec_from_json,
    execute_cell,
)
from repro.harness import litmus  # noqa: F401  (registers its oracle)
from repro.harness.verify import judge


@dataclass
class ReplayResult:
    """One replayed cell plus its verdict."""

    spec: CellSpec
    outcome: CellOutcome

    @property
    def passed(self) -> bool:
        return self.outcome.ok and judge(self.outcome).ok

    def format_report(self) -> str:
        spec = self.spec
        lines = [
            "replayed cell:",
            f"  workload   : {spec.workload.name} "
            f"(threads={spec.workload.threads}, "
            f"transactions={spec.workload.transactions})",
            f"  scheme     : {spec.scheme}",
            f"  crash plan : {spec.crash_plan}",
            f"  fault plan : {spec.fault_plan}",
        ]
        outcome = self.outcome
        if not outcome.ok:
            lines.append("cell raised:")
            lines.append(outcome.error.rstrip())
            return "\n".join(lines)
        result = outcome.result
        lines.append(
            f"  committed  : {result.committed_count}"
            f"/{result.total_transactions} transactions"
        )
        report = result.recovery
        if report is not None:
            lines.append(
                f"  recovery   : scanned={report.scanned} "
                f"replayed={report.replayed} revoked={report.revoked} "
                f"rejected(torn={report.rejected_torn}, "
                f"dropped={report.rejected_dropped}, "
                f"checksum={report.rejected_checksum}, "
                f"tuples={report.rejected_tuples}) "
                f"salvaged={report.words_salvaged}w "
                f"poisoned={report.media_poisoned} "
                f"healed={report.poison_healed}"
            )
        verdict = outcome.fault_verdict
        if verdict is not None:
            lines.append(f"  injected   : {verdict.injected}")
            lines.append(f"  reported   : {verdict.reported}")
            lines.append(
                f"  mismatches : {len(verdict.mismatches)} total, "
                f"{len(verdict.unattributed)} unattributed"
            )
        elif outcome.mismatches is not None:
            lines.append(f"  mismatches : {len(outcome.mismatches)}")
            for addr, got, want in outcome.mismatches[:5]:
                lines.append(
                    f"    {addr:#x}: got {got:#x}, want {want:#x}"
                )
        judged = judge(outcome)
        if judged.kind != "ok":
            lines.append(f"  oracle     : {judged.detail}")
        if judged.disagreement:
            lines.append(f"  DISAGREE   : {judged.disagreement}")
        lines.append(f"verdict: {'PASS' if judged.ok else 'FAIL'}")
        return "\n".join(lines)


def run(spec_json: str, executor: Optional[object] = None) -> ReplayResult:
    """Execute the cell encoded in ``spec_json`` in-process.

    ``executor`` is accepted for CLI symmetry but unused: a replay is
    always one cell at ``--jobs 1`` semantics, bypassing the cache so
    the failure actually re-runs.
    """
    spec = cell_spec_from_json(spec_json)
    return ReplayResult(spec=spec, outcome=execute_cell(spec))
