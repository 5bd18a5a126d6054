"""One crash-verification campaign: draw, judge, tally, report.

Silo's central claim is atomic durability at every crash point.  The
``crashtest``, ``faultsweep`` and ``litmus`` commands check it as three
presets (:mod:`~repro.harness.crashtest`,
:mod:`~repro.harness.faultsweep`, :mod:`~repro.harness.litmus`) of the
one campaign in this module, which owns what they share:

* the crash-point draw: seeded random points (a quarter strike exactly
  at a commit, the rest at an op; a fault-plan seed is drawn only at a
  faulted point) or the exhaustive ``0..total_ops`` enumeration;
* :func:`judge`, the one verdict of a completed cell, which
  ``silo-repro replay`` prints too;
* :class:`CampaignResult`: per-design and per-family tallies, one text
  report and one JSON schema;
* the JSON report file, the representative Chrome trace artifact and
  the shrinking of violations to minimal replayable cells.

Every draw happens before any cell runs, so a campaign is a fixed list
of independent cells: the executor fans them out (cache, ``--jobs``,
retries, ``--resume``), the verdicts are identical at any jobs count,
and every failing cell prints a one-line ``replay`` command.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.designs.scheme import SchemeRegistry
from repro.faults.plan import FaultPlan
from repro.harness.executor import (
    CellOutcome,
    CellSpec,
    Executor,
    WorkloadSpec,
    aggregate_outcome_metrics,
    cell_spec_to_json,
    execute_cell,
    raise_on_failures,
    repro_command,
)
from repro.harness.report import format_table
from repro.obs import ObsConfig
from repro.obs.export import write_chrome_trace
from repro.sim.crash import CrashPlan

#: Default designs of the random presets: every registered design but
#: ``swlog``.  The performance ledger's seed-1 digest of its ``verify``
#: workload pins this cell set, so adding ``swlog`` waits for a change
#: that re-pins that digest.
RANDOM_DESIGNS: Tuple[str, ...] = tuple(
    name for name in SchemeRegistry.names() if name != "swlog"
)

#: Minimize at most this many distinct failing (design, source) pairs
#: per campaign: one minimized cell per bug is what a regression test
#: needs, and hundreds would just be slow.
MAX_SHRINKS = 5


class Point(NamedTuple):
    """One crash point of a source, with the faults injected at it."""

    label: str
    crash: CrashPlan
    preset: str = "clean"
    fault: Optional[FaultPlan] = None


class Source(NamedTuple):
    """One program a campaign crashes: a workload, or a litmus pattern
    keyed by its name."""

    name: str
    workload: WorkloadSpec
    points: Tuple[Point, ...]


def random_sources(
    workloads: Sequence[str],
    count: int,
    threads: int,
    transactions: int,
    seed: int,
    faults: Sequence[Tuple[str, Optional[Dict[str, object]]]] = (("clean", None),),
) -> List[Source]:
    """``count`` seeded crash points per workload, rotating through
    ``faults``, ``(name, FaultPlan keyword arguments)`` pairs where
    ``None`` is a clean crash.  The draw order is part of every random campaign's cell
    set: crash point, then the fault seed of a faulted point."""
    rng = random.Random(seed)
    sources = []
    for name in workloads:
        workload = WorkloadSpec.make(name, threads=threads, transactions=transactions)
        ops = workload.build().total_ops
        points = []
        for index in range(count):
            if rng.random() < 0.25:
                tid = rng.randrange(threads)
                tx = rng.randrange(transactions)
                label = f"commit({tid},{tx})"
                crash = CrashPlan(at_commit_of=(tid, tx))
            else:
                at = rng.randrange(ops)
                label, crash = f"op {at}", CrashPlan(at_op=at)
            preset, kwargs = faults[index % len(faults)]
            fault = None
            if kwargs is not None:
                fault = FaultPlan(seed=rng.randrange(1 << 30), **kwargs)
            points.append(Point(label, crash, preset, fault))
        sources.append(Source(name, workload, tuple(points)))
    return sources


def every_point(total_ops: int) -> Tuple[Point, ...]:
    """Every ``at_op`` in ``0..total_ops``, both boundaries included."""
    return tuple(Point(f"op {at}", CrashPlan(at_op=at)) for at in range(total_ops + 1))


@dataclass(frozen=True)
class Preset:
    """What one campaign declares; everything else is shared."""

    name: str
    title: str
    #: Observability for every cell (faultsweep's metrics roll-up).
    obs: Optional[ObsConfig] = None
    #: Snapshot the recovered image for the declarative litmus oracle.
    capture_image: bool = False
    #: ``(source, design, failing point) -> (minimal source, its
    #: failing point)``; ``None`` reports violations unshrunk.
    shrink: Optional[Callable[[Source, str, Point], Tuple[Source, Point]]] = None

    def cell(self, workload: WorkloadSpec, scheme: str, point: Point) -> CellSpec:
        return CellSpec(
            workload=workload,
            scheme=scheme,
            cores=workload.threads,
            crash_plan=point.crash,
            fault_plan=point.fault,
            verify=True,
            obs=self.obs,
            capture_image=self.capture_image,
        )


class Verdict(NamedTuple):
    """One completed cell, judged.

    ``kind`` is ``ok``, ``violation`` (a mismatch no injected fault
    explains), ``silent`` (only injected damage recovery did not
    report; ``silent`` is also set on a violation that has it) or a
    workload oracle's kind.  ``disagreement`` is set when a workload
    oracle and the exact oracle differ: a bug in a checker, which
    fails the cell even when ``kind`` is ``ok``.
    """

    kind: str = "ok"
    detail: str = ""
    silent: bool = False
    disagreement: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok" and not self.disagreement


#: Workload name -> declarative oracle of a cell that captured its
#: recovered image; the verdict it returns has ``ok``, ``kind`` and a
#: text form.  A preset with such an oracle registers it on import.
ORACLES: Dict[str, Callable[[CellOutcome], Any]] = {}


def judge(outcome: CellOutcome) -> Verdict:
    """The fault-aware verdict when the cell carries a fault plan, the
    exact oracle's mismatches otherwise, and where the workload has a
    declarative oracle, its verdict cross-checked against the exact
    one."""
    fault = outcome.fault_verdict
    if fault is not None:
        if fault.ok:
            return Verdict()
        kind = "violation" if fault.unattributed else "silent"
        return Verdict(kind, fault.describe(), silent=bool(fault.silent))
    exact = outcome.mismatches or []
    oracle = ORACLES.get(outcome.spec.workload.name)
    if oracle is None or outcome.image is None:
        if not exact:
            return Verdict()
        addr, got, want = exact[0]
        return Verdict(
            "violation",
            f"{len(exact)} mismatch(es), first at {addr:#x}: "
            f"got {got:#x}, want {want:#x}",
        )
    declared = oracle(outcome)
    disagreement = ""
    if declared.ok == bool(exact):
        disagreement = (
            f"declarative verdict {declared} but exact oracle found "
            f"{len(exact)} mismatch(es)"
        )
    return Verdict(declared.kind, str(declared), disagreement=disagreement)


class Tally(NamedTuple):
    """Cells, violating cells and silently corrupted cells of one
    design or family; a cell with only silent damage counts once, as
    silent."""

    cells: int = 0
    violations: int = 0
    silent: int = 0

    def add(self, verdict: Verdict) -> "Tally":
        return Tally(
            self.cells + 1,
            self.violations + (verdict.kind not in ("ok", "silent")),
            self.silent + verdict.silent,
        )


@dataclass
class CampaignResult:
    """Outcome of one crash-verification campaign."""

    campaign: str
    title: str
    #: Programs crashed: workloads, or litmus patterns.
    sources: int = 0
    cells: int = 0
    per_scheme: Dict[str, Tally] = field(default_factory=dict)
    #: Per workload, or per pattern family (the part of a litmus
    #: pattern's name before its ``/``).
    per_family: Dict[str, Tally] = field(default_factory=dict)
    #: One record per cell whose verdict failed (silent ones too), with
    #: its replay command.
    violations: List[Dict[str, object]] = field(default_factory=list)
    #: Pattern cells where the two oracles disagreed (a checker bug).
    disagreements: List[str] = field(default_factory=list)
    #: Faults injected / reported over the campaign, by kind.
    injected: Dict[str, int] = field(default_factory=dict)
    reported: Dict[str, int] = field(default_factory=dict)
    #: One minimized ``replay --spec`` cell per shrunk bug.
    minimized: List[Dict[str, object]] = field(default_factory=list)
    #: Obs metrics summed over every cell, when the cells carried them.
    metrics: Optional[Dict[str, object]] = None
    #: Where the representative Chrome trace artifact landed, if asked.
    trace_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.violations and not self.disagreements

    @property
    def silent(self) -> int:
        return sum(tally.silent for tally in self.per_scheme.values())

    # The performance ledger counts failed cells by these two names.
    @property
    def failures(self) -> int:
        return len(self.violations)

    @property
    def failure_details(self) -> List[Dict[str, object]]:
        return self.violations

    def format_report(self) -> str:
        rows = [
            [scheme, *tally, "FAIL" if tally.violations or tally.silent else "PASS"]
            for scheme, tally in sorted(self.per_scheme.items())
        ]
        lines = [
            format_table(
                ["scheme", "cells", "violations", "silent", "verdict"],
                rows,
                title=self.title,
            ),
            "",
            f"{self.sources} program(s) x crash points x "
            f"{len(self.per_scheme)} design(s) = {self.cells} cells | "
            f"oracle disagreements: {len(self.disagreements)}",
        ]
        if self.injected:
            for what, counts in (("injected", self.injected), ("reported", self.reported)):
                lines.append(
                    f"faults {what}: {sum(counts.values())} "
                    f"({json.dumps(counts, sort_keys=True)})"
                )
        if self.trace_path:
            lines.append(f"trace artifact: {self.trace_path}")
        if self.disagreements:
            lines.append("ORACLE DISAGREEMENTS (checker bug):")
            lines += [f"  {text}" for text in self.disagreements[:5]]
        if self.violations:
            lines += ["", f"violations: {len(self.violations)}"]
        for record in self.violations[:5]:
            lines.append(
                f"  {record['scheme']}/{record['workload']} @ "
                f"{record['point']} [{record['preset']}]: {record['detail']}"
            )
            lines.append(f"    replay: {record['replay']}")
        if self.minimized:
            lines += ["", "minimized cells:"]
        for record in self.minimized:
            lines.append(
                f"  {record['scheme']}/{record['workload']} @ "
                f"{record['point']} [{record['kind']}]"
            )
            lines.append(f"    replay: {record['replay']}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "passed": self.passed,
            "sources": self.sources,
            "cells": self.cells,
            "silent": self.silent,
            "per_scheme": {k: t._asdict() for k, t in sorted(self.per_scheme.items())},
            "per_family": {k: t._asdict() for k, t in sorted(self.per_family.items())},
            "violations": self.violations,
            "disagreements": self.disagreements,
            "injected": dict(sorted(self.injected.items())),
            "reported": dict(sorted(self.reported.items())),
            "minimized": self.minimized,
            "minimized_specs": [record["spec"] for record in self.minimized],
            "metrics": self.metrics,
            "trace": self.trace_path,
        }


def run_campaign(
    preset: Preset,
    sources: Sequence[Source],
    schemes: Sequence[str],
    executor: Optional[Executor] = None,
    output: Optional[str] = None,
    trace_output: Optional[str] = None,
    shrink: bool = True,
) -> CampaignResult:
    """Crash every source at each of its points on every design, judge
    each cell, and shrink the first failures when the preset can.

    ``output`` writes the JSON report; ``trace_output`` re-runs the
    first faulted cell (else the first cell) with event tracing and
    writes its Chrome trace: one representative trace is enough for a
    CI artifact, and ``replay`` reproduces any specific cell."""
    labels = [
        (source, scheme, point)
        for source in sources
        for scheme in schemes
        for point in source.points
    ]
    cells = [preset.cell(source.workload, scheme, point) for source, scheme, point in labels]
    outcomes = (executor if executor is not None else Executor(jobs=1)).run(cells)
    raise_on_failures(outcomes)

    result = CampaignResult(preset.name, preset.title, sources=len(sources))
    failing: Dict[Tuple[str, str], Tuple[Source, Point, Verdict]] = {}
    for (source, scheme, point), outcome in zip(labels, outcomes):
        verdict = judge(outcome)
        result.cells += 1
        result.per_scheme[scheme] = result.per_scheme.get(scheme, Tally()).add(verdict)
        family = source.name.partition("/")[0]
        result.per_family[family] = result.per_family.get(family, Tally()).add(verdict)
        fault = outcome.fault_verdict
        if fault is not None:
            for totals, counts in ((result.injected, fault.injected), (result.reported, fault.reported)):
                for kind, count in counts.items():
                    totals[kind] = totals.get(kind, 0) + count
        if verdict.disagreement:
            result.disagreements.append(
                f"{scheme}/{source.name} @ {point.label}: {verdict.disagreement}"
            )
        if verdict.kind != "ok":
            result.violations.append(
                {
                    "scheme": scheme,
                    "workload": source.name,
                    "point": point.label,
                    "preset": point.preset,
                    "kind": verdict.kind,
                    "detail": verdict.detail,
                    "replay": repro_command(outcome.spec),
                }
            )
            failing.setdefault((scheme, source.name), (source, point, verdict))

    aggregated = aggregate_outcome_metrics(outcomes)
    if aggregated is not None:
        result.metrics = aggregated.to_json_dict()

    if shrink and preset.shrink is not None:
        for (scheme, _), (source, point, verdict) in list(failing.items())[:MAX_SHRINKS]:
            minimal, minimal_point = preset.shrink(source, scheme, point)
            spec = preset.cell(minimal.workload, scheme, minimal_point)
            final = judge(execute_cell(spec))
            result.minimized.append(
                {
                    "scheme": scheme,
                    "workload": minimal.name,
                    "point": minimal_point.label,
                    "kind": (final if final.kind != "ok" else verdict).kind,
                    "spec": cell_spec_to_json(spec),
                    "replay": repro_command(spec),
                }
            )

    if trace_output and cells:
        chosen = next((c for c in cells if c.fault_plan is not None), cells[0])
        traced = replace(
            chosen, verify=False, capture_image=False, obs=ObsConfig(events=True, metrics=True)
        )
        write_chrome_trace(execute_cell(traced).result, trace_output)
        result.trace_path = trace_output

    if output:
        with open(output, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result
