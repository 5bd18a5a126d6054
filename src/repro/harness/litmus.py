"""Exhaustive litmus campaigns (``silo-repro litmus``).

The pattern preset of the one crash-verification campaign
(:mod:`repro.harness.verify`): every pattern of the
:mod:`repro.litmus.patterns` catalog is crashed at *every* ``at_op`` in
``[0, total_ops]``, both boundaries included, on every registered
design.  Each cell captures its recovered PM image, which the
declarative persistency-model oracle below judges
(:func:`repro.litmus.oracle.check_litmus`); the exact atomic-durability
oracle runs on the same cell, and the campaign cross-checks the two on
every cell, so an oracle divergence (a bug in either checker) fails the
campaign just like a persistency violation does.

Each violation is **shrunk** in-process (drop threads, transactions,
ops; re-enumerate the narrower crash window) to a 1-minimal cell and
reported as a copy-pasteable ``silo-repro replay --spec`` one-liner.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.designs.scheme import SchemeRegistry
from repro.harness.executor import CellSpec, Executor, WorkloadSpec, execute_cell
from repro.harness.verify import (
    ORACLES,
    CampaignResult,
    Point,
    Preset,
    Source,
    every_point,
    run_campaign,
)
from repro.litmus.oracle import LitmusVerdict, check_litmus
from repro.litmus.patterns import Pattern, decode_pattern, enumerate_patterns, lower_pattern
from repro.litmus.shrink import shrink_pattern
from repro.sim.crash import CrashPlan


def pattern_spec(pattern: Pattern) -> WorkloadSpec:
    """The executor recipe for one pattern."""
    return WorkloadSpec.make(
        "litmus",
        threads=pattern.cores,
        transactions=pattern.total_txs,
        pattern=pattern.key,
    )


def pattern_source(pattern: Pattern) -> Source:
    """One pattern with every one of its crash points."""
    return Source(pattern.key, pattern_spec(pattern), every_point(pattern.total_ops))


def litmus_cell(pattern: Pattern, scheme: str, at_op: int) -> CellSpec:
    """One (pattern x crash point x design) cell."""
    return PRESET.cell(pattern_spec(pattern), scheme, Point(f"op {at_op}", CrashPlan(at_op=at_op)))


def judge_cell(pattern: Pattern, outcome) -> LitmusVerdict:
    """Apply the declarative oracle to one completed cell."""
    trace = lower_pattern(pattern)
    return check_litmus(trace, outcome.result.committed, outcome.image)


# The shared judge runs this oracle on every pattern cell and
# cross-checks it against the exact one.
ORACLES["litmus"] = lambda outcome: judge_cell(
    decode_pattern(dict(outcome.spec.workload.kwargs)["pattern"]), outcome
)


def _exhaustive_fail_point(pattern: Pattern, scheme: str) -> Optional[int]:
    """Smallest failing ``at_op`` of a (pattern, design) pair under
    in-process exhaustive re-enumeration, or ``None``: the shrinker's
    re-judge predicate."""
    for at_op in range(pattern.total_ops + 1):
        outcome = execute_cell(litmus_cell(pattern, scheme, at_op))
        if not judge_cell(pattern, outcome).ok:
            return at_op
    return None


def _shrink(source: Source, scheme: str, point: Point) -> Tuple[Source, Point]:
    minimal, at_op = shrink_pattern(
        decode_pattern(source.name),
        point.crash.at_op,
        lambda candidate: _exhaustive_fail_point(candidate, scheme),
    )
    minimal_source = pattern_source(minimal)
    return minimal_source, minimal_source.points[at_op]


PRESET = Preset(
    name="litmus",
    title="Persistency-model litmus sweep (exhaustive crash-point enumeration)",
    capture_image=True,
    shrink=_shrink,
)


def run(
    schemes: Optional[Sequence[str]] = None,
    smoke: bool = False,
    executor: Optional[Executor] = None,
    output: Optional[str] = None,
    shrink: bool = True,
    max_patterns: Optional[int] = None,
) -> CampaignResult:
    """Run one exhaustive litmus campaign over ``schemes`` (default:
    every registered design).

    ``smoke`` selects the CI-sized pattern catalog (still well over
    500 cells); ``max_patterns`` further truncates the catalog (test
    hook).  ``output`` writes the JSON report.  ``shrink=False`` skips
    minimization (the raw violations and their replay commands are
    still reported).
    """
    patterns = enumerate_patterns(smoke=smoke)[:max_patterns]
    return run_campaign(
        PRESET,
        [pattern_source(pattern) for pattern in patterns],
        SchemeRegistry.names() if schemes is None else schemes,
        executor=executor,
        output=output,
        shrink=shrink,
    )
