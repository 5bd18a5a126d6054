"""Chaos self-test harness: inject faults into the execution layer and
prove the final results don't care.

The resilience machinery in :mod:`repro.harness.executor` (outcome
kinds, the wall-clock watchdog, bounded retries, hardened store loads)
only earns trust if it is *exercised* — a retry path that never runs
is a retry path that silently rots.  This module turns the harness on
itself:

* a :class:`ChaosPlan` rides into every worker process (via the pool
  initializer) and, **on first attempts only**, kills the worker
  (``os._exit``), hangs it, or raises a transient :class:`ChaosError`
  for deterministically chosen target cells — so every injected fault
  must converge under retry, exactly like a real one;
* :func:`run` executes one small smoke campaign fault-free to capture
  baseline result digests, then re-runs it under five chaos phases —
  worker **kills**, worker **hangs** (caught by the watchdog),
  transient **raises**, **corrupted store entries** (truncated
  result and trace-artifact pickles) and an **interrupt + resume** (a
  SIGINT after N completions, then a ``resume`` run) — asserting after
  each that every cell completed ``ok``, the retry/timeout/quarantine
  counters actually moved (the fault *happened*), and the results are
  **bit-identical** to the fault-free baseline;
* ``silo-repro chaos --smoke`` runs it from the CLI and CI, writing a
  ``CHAOS.json`` report; a nonzero exit means the resilience layer let
  an injected fault leak into results (or failed to recover at all).

Chaos is test-only plumbing: a production executor never installs a
plan, and the worker-side hook costs one ``is None`` check per cell.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (
    _TRACE_MEMO,
    CampaignInterrupted,
    CellOutcome,
    CellSpec,
    Executor,
    WorkloadSpec,
    spec_key,
)
from repro.harness.resultcache import ResultCache
from repro.harness.traceartifacts import TraceArtifactStore


class ChaosError(Exception):
    """The transient, injected failure (never raised by real cells)."""


def cell_digest(key: str) -> str:
    """Stable digest of a canonical cell key, for chaos targeting."""
    return hashlib.sha256(key.encode()).hexdigest()


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic fault-injection plan for the execution layer.

    ``targets`` pins faults to specific cells: ``(digest_prefix,
    action)`` pairs matched against :func:`cell_digest` of the cell's
    canonical key, with ``action`` one of ``"kill"`` / ``"hang"`` /
    ``"raise"``.  The ``*_prob`` fields add seeded per-cell randomness
    on top (``random.Random`` keyed by seed + digest — identical plans
    fault identical cells, whatever the dispatch order).

    Faults fire on **first attempts only** (``attempt == 0``), so a
    chaos campaign with ``retries >= 1`` must converge to the fault-
    free results; ``interrupt_after=N`` is a parent-side action — the
    executor raises :class:`KeyboardInterrupt` after N live
    completions, simulating a SIGINT landing mid-campaign.

    The plan is pickled into worker initargs; keep it tiny and frozen.
    """

    seed: int = 0
    kill_prob: float = 0.0
    hang_prob: float = 0.0
    raise_prob: float = 0.0
    hang_seconds: float = 3600.0
    targets: Tuple[Tuple[str, str], ...] = ()
    interrupt_after: Optional[int] = None

    def action(self, key: str, attempt: int) -> Optional[str]:
        """The fault to inject for this cell dispatch, or ``None``."""
        if attempt > 0:
            return None
        digest = cell_digest(key)
        for prefix, action in self.targets:
            if digest.startswith(prefix):
                return action
        rng = random.Random(f"chaos|{self.seed}|{digest}")
        roll = rng.random()
        if roll < self.kill_prob:
            return "kill"
        if roll < self.kill_prob + self.hang_prob:
            return "hang"
        if roll < self.kill_prob + self.hang_prob + self.raise_prob:
            return "raise"
        return None

    def preflight(self, key: str, attempt: int) -> None:
        """Worker-side hook, called by ``_worker_batch`` before each
        cell.  May never return (kill/hang)."""
        action = self.action(key, attempt)
        if action is None:
            return
        if action == "kill":
            # Simulates an OOM kill / segfault: the process vanishes
            # without unwinding, breaking the pool.
            os._exit(17)
        if action == "hang":
            # Simulates a deadlocked worker; only the watchdog can
            # recover it.
            time.sleep(self.hang_seconds)
            return
        raise ChaosError(
            f"injected transient failure (seed={self.seed}, "
            f"cell {cell_digest(key)[:12]})"
        )


# ----------------------------------------------------------------------
# The self-test campaign
# ----------------------------------------------------------------------
@dataclass
class ChaosPhase:
    """Outcome of one injection phase of the self-test."""

    name: str
    description: str
    passed: bool
    notes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "notes": list(self.notes),
        }


@dataclass
class ChaosResult:
    """Aggregate verdict of a chaos self-test run."""

    phases: List[ChaosPhase] = field(default_factory=list)
    cells: int = 0

    @property
    def passed(self) -> bool:
        return bool(self.phases) and all(p.passed for p in self.phases)

    def to_json_dict(self) -> dict:
        return {
            "experiment": "chaos",
            "cells": self.cells,
            "passed": self.passed,
            "phases": [p.to_json_dict() for p in self.phases],
        }

    def format_report(self) -> str:
        lines = [
            "Chaos self-test: injected executor faults vs. final results",
            f"  campaign: {self.cells} cells per phase",
            "",
        ]
        for phase in self.phases:
            verdict = "PASS" if phase.passed else "FAIL"
            lines.append(f"  [{verdict}] {phase.name}: {phase.description}")
            for note in phase.notes:
                lines.append(f"         - {note}")
        lines.append("")
        lines.append(
            "OVERALL: PASS — every injected fault was absorbed; results "
            "bit-identical to the fault-free run"
            if self.passed
            else "OVERALL: FAIL — an injected fault leaked into results "
            "or recovery failed"
        )
        return "\n".join(lines)


def _smoke_cells() -> List[CellSpec]:
    """A tiny, fast, deterministic campaign: two workloads x two
    schemes, verified, small enough that five phases stay in seconds."""
    cells: List[CellSpec] = []
    for workload in ("hash", "queue"):
        for scheme in ("base", "silo"):
            cells.append(
                CellSpec(
                    workload=WorkloadSpec.make(
                        workload, threads=2, transactions=6, seed=7
                    ),
                    scheme=scheme,
                    cores=2,
                    verify=True,
                )
            )
    return cells


def _canonical(obj):
    """Order-independent canonical form of a result payload.

    Raw ``pickle.dumps`` is *not* stable across process boundaries:
    a ``set``'s iteration (hence pickle) order depends on its insertion
    history, and every IPC or cache round-trip rebuilds the set in the
    previous hop's iteration order.  Two semantically identical results
    can therefore differ byte-wise purely by how many pickles they have
    been through.  Canonicalizing sorts every unordered container (and
    explodes dataclasses/objects field-wise), so the digest captures
    exactly the *values* — which is the bit-identity the determinism
    contract actually promises.
    """
    import dataclasses

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((_canonical(k), _canonical(v)) for k, v in obj.items()),
                    key=repr,
                )
            ),
        )
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(x) for x in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(x) for x in obj))
    if hasattr(obj, "__dict__") and not isinstance(
        obj, (str, bytes, int, float, bool, type(None))
    ):
        return (type(obj).__name__, _canonical(vars(obj)))
    return obj


def _result_digests(outcomes: Sequence[CellOutcome]) -> List[str]:
    """Canonical digest of each cell's payload (result + oracle
    verdicts), the quantity chaos must not perturb."""
    digests = []
    for outcome in outcomes:
        blob = repr(
            _canonical(
                (outcome.result, outcome.mismatches, outcome.fault_verdict)
            )
        ).encode()
        digests.append(hashlib.sha256(blob).hexdigest())
    return digests


def _check_phase(
    phase: ChaosPhase,
    outcomes: Sequence[CellOutcome],
    baseline: Sequence[str],
    executor: Executor,
    expect: Dict[str, int],
) -> None:
    """Shared assertions: all cells ok, bit-identical to baseline, and
    the expected fault counters actually moved."""
    not_ok = [o for o in outcomes if not o.ok]
    if not_ok:
        phase.passed = False
        kinds = ", ".join(f"{o.spec.scheme}:{o.kind}" for o in not_ok)
        phase.notes.append(f"{len(not_ok)} cells did not recover ({kinds})")
    digests = _result_digests(outcomes)
    if list(digests) != list(baseline):
        phase.passed = False
        diverged = sum(1 for a, b in zip(digests, baseline) if a != b)
        phase.notes.append(
            f"{diverged} cells diverged bit-wise from the fault-free run"
        )
    else:
        phase.notes.append("results bit-identical to fault-free baseline")
    stats = executor.stats
    for name, minimum in expect.items():
        actual = getattr(stats, name)
        if actual < minimum:
            phase.passed = False
            phase.notes.append(
                f"expected stats.{name} >= {minimum}, got {actual} "
                "(the injected fault never fired?)"
            )
        else:
            phase.notes.append(f"stats.{name} = {actual}")


def _run_injection_phase(
    name: str,
    description: str,
    cells: Sequence[CellSpec],
    baseline: Sequence[str],
    plan: ChaosPlan,
    jobs: int,
    expect: Dict[str, int],
    retried_prefixes: Sequence[str] = (),
    cell_timeout=None,
) -> ChaosPhase:
    phase = ChaosPhase(name=name, description=description, passed=True)
    with Executor(
        jobs=jobs,
        batch=1,
        retries=2,
        retry_backoff=0.05,
        cell_timeout=cell_timeout,
        chaos=plan,
    ) as executor:
        outcomes = executor.run(list(cells))
        _check_phase(phase, outcomes, baseline, executor, expect)
    for prefix in retried_prefixes:
        hit = [
            o
            for o in outcomes
            if cell_digest(spec_key(o.spec)).startswith(prefix)
        ]
        if not hit or hit[0].attempts < 2:
            phase.passed = False
            phase.notes.append(
                f"target cell {prefix[:12]} was never re-dispatched "
                f"(attempts={hit[0].attempts if hit else 'missing'})"
            )
        elif not hit[0].retry_reasons:
            phase.passed = False
            phase.notes.append(
                f"target cell {prefix[:12]} retried without recording why"
            )
        else:
            phase.notes.append(
                f"target cell {prefix[:12]}: attempts={hit[0].attempts}, "
                f"first reason: {hit[0].retry_reasons[0][:60]}"
            )
    return phase


def _run_corruption_phase(
    cells: Sequence[CellSpec], baseline: Sequence[str], jobs: int
) -> ChaosPhase:
    """Populate real stores in a scratch dir, damage them, and prove
    the rerun quarantines + recomputes instead of crashing/serving
    garbage."""
    phase = ChaosPhase(
        name="corrupt",
        description=(
            "truncated result-cache and trace-store pickles are "
            "quarantined and recomputed"
        ),
        passed=True,
    )
    scratch = tempfile.mkdtemp(prefix="silo-chaos-")
    results = ResultCache(scratch)
    traces = TraceArtifactStore(scratch)
    try:
        with Executor(
            jobs=jobs, batch=1, cache=results, trace_store=traces
        ) as executor:
            executor.run(list(cells))

        damaged = 0
        for path in [results.path(spec_key(c)) for c in cells][::2]:
            path.write_bytes(path.read_bytes()[:7])
            damaged += 1
        path = traces.path(traces.key(cells[0].workload))
        if path.exists():
            path.write_bytes(b"\x80not a pickle")
            damaged += 1
        phase.notes.append(f"damaged {damaged} store entries in place")

        # Forget this process's built traces (forked workers inherit
        # them), so the rerun really reads the damaged artifact.
        _TRACE_MEMO.clear()
        with Executor(
            jobs=jobs, batch=1, cache=results, trace_store=traces
        ) as executor:
            outcomes = executor.run(list(cells))
            _check_phase(phase, outcomes, baseline, executor, {})
        recomputed = sum(1 for o in outcomes if not o.cached)
        if recomputed == 0:
            phase.passed = False
            phase.notes.append(
                "no cell recomputed — corrupt entries were served?"
            )
        else:
            phase.notes.append(
                f"{recomputed} damaged cells recomputed, "
                f"{len(outcomes) - recomputed} served from intact entries"
            )
        quarantined = sum(
            store.stats()["quarantined"] for store in (results, traces)
        )
        if quarantined < damaged:
            phase.passed = False
            phase.notes.append(
                f"only {quarantined} of {damaged} damaged entries were "
                "quarantined as *.corrupt"
            )
        else:
            phase.notes.append(
                f"{quarantined} entries quarantined as *.corrupt"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return phase


def _run_resume_phase(
    cells: Sequence[CellSpec], baseline: Sequence[str], jobs: int
) -> ChaosPhase:
    """Interrupt a stored campaign mid-run, resume it, and prove the
    resumed run executes exactly the unsettled cells and reproduces the
    fault-free results."""
    phase = ChaosPhase(
        name="resume",
        description=(
            "a SIGINT after two completions drains; the resumed run "
            "executes only the unsettled cells"
        ),
        passed=True,
    )
    scratch = tempfile.mkdtemp(prefix="silo-chaos-")

    def executor(**kwargs) -> Executor:
        return Executor(
            jobs=jobs,
            batch=1,
            cache=ResultCache(scratch),
            trace_store=TraceArtifactStore(scratch),
            **kwargs,
        )

    try:
        try:
            with executor(chaos=ChaosPlan(interrupt_after=2)) as interrupted:
                interrupted.run(list(cells))
        except CampaignInterrupted as exc:
            completed = len(exc.outcomes)
        else:
            phase.passed = False
            phase.notes.append("the injected interrupt never fired")
            return phase
        phase.notes.append(f"interrupted after {completed} of {len(cells)} cells")
        with executor(resume=True) as resumed:
            outcomes = resumed.run(list(cells))
            _check_phase(phase, outcomes, baseline, resumed, {})
        expected = len(cells) - completed
        if resumed.stats.executed != expected:
            phase.passed = False
            phase.notes.append(
                f"resumed run executed {resumed.stats.executed} cells, "
                f"expected {expected}"
            )
        else:
            phase.notes.append(f"resumed run executed {expected} cells")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return phase


def run(
    smoke: bool = True,
    jobs: int = 2,
    seed: int = 0,
    output: Optional[str] = None,
) -> ChaosResult:
    """Run the chaos self-test campaign; see the module docstring.

    ``jobs`` is clamped to >= 2: chaos needs real worker processes
    (the in-process serial path can't survive ``os._exit``).  The
    ``smoke`` flag is accepted for CLI symmetry — the campaign is
    always smoke-sized.  ``seed`` varies which probabilistic faults
    fire (targeted faults are seed-independent).
    """
    del smoke  # one size: the phases, not the cells, are the test
    jobs = max(2, jobs)
    cells = _smoke_cells()
    digests = [cell_digest(spec_key(c)) for c in cells]
    result = ChaosResult(cells=len(cells))

    # Phase 0: fault-free baseline (fresh executor, no stores).
    with Executor(jobs=jobs, batch=1) as executor:
        baseline_outcomes = executor.run(list(cells))
    baseline = _result_digests(baseline_outcomes)
    bad = [o for o in baseline_outcomes if not o.ok]
    result.phases.append(
        ChaosPhase(
            name="baseline",
            description="fault-free smoke campaign (reference digests)",
            passed=not bad,
            notes=(
                [f"{len(bad)} cells failed without any injected fault"]
                if bad
                else [f"{len(cells)} cells ok"]
            ),
        )
    )
    if bad:
        # Nothing downstream is meaningful if the campaign itself is
        # broken; report and stop.
        return _finalize(result, output)

    result.phases.append(
        _run_injection_phase(
            "kill",
            "a worker is killed (os._exit) mid-cell; pool respawns, "
            "cell retries",
            cells,
            baseline,
            ChaosPlan(seed=seed, targets=((digests[0][:16], "kill"),)),
            jobs,
            expect={"infra": 1, "retries": 1},
            retried_prefixes=[digests[0][:16]],
        )
    )
    result.phases.append(
        _run_injection_phase(
            "hang",
            "a worker hangs; the wall-clock watchdog kills and retries "
            "it",
            cells,
            baseline,
            ChaosPlan(
                seed=seed,
                hang_seconds=60.0,
                targets=((digests[1][:16], "hang"),),
            ),
            jobs,
            expect={"timeouts": 1, "retries": 1},
            retried_prefixes=[digests[1][:16]],
            cell_timeout=2.0,
        )
    )
    result.phases.append(
        _run_injection_phase(
            "raise",
            "two cells raise transient infrastructure errors on first "
            "attempt",
            cells,
            baseline,
            ChaosPlan(
                seed=seed,
                targets=(
                    (digests[2][:16], "raise"),
                    (digests[3][:16], "raise"),
                ),
            ),
            jobs,
            expect={"infra": 2, "retries": 2},
            retried_prefixes=[digests[2][:16], digests[3][:16]],
        )
    )
    result.phases.append(_run_corruption_phase(cells, baseline, jobs))
    result.phases.append(_run_resume_phase(cells, baseline, jobs))
    return _finalize(result, output)


def _finalize(result: ChaosResult, output: Optional[str]) -> ChaosResult:
    if output:
        import json

        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result
