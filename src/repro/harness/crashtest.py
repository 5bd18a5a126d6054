"""Randomized crash-recovery sweeps (``silo-repro crashtest``).

The clean-crash preset of the one crash-verification campaign
(:mod:`repro.harness.verify`): for each design it injects power
failures at seeded random points of a workload, including strikes
exactly at a commit, recovers, and checks the atomic-durability
invariant word by word.  This is the same oracle the property-based
tests use, packaged for large sweeps.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.executor import Executor
from repro.harness.verify import (
    RANDOM_DESIGNS,
    CampaignResult,
    Preset,
    random_sources,
    run_campaign,
)

PRESET = Preset(
    name="crashtest",
    title="Crash-recovery validation sweep (atomic durability)",
)


def run(
    workloads: Sequence[str] = ("hash", "btree"),
    schemes: Sequence[str] = RANDOM_DESIGNS,
    points_per_pair: int = 20,
    threads: int = 2,
    transactions: int = 8,
    seed: int = 0,
    executor: Optional[Executor] = None,
    output: Optional[str] = None,
) -> CampaignResult:
    """Sweep ``points_per_pair`` crash points over every (design,
    workload) pair; ``output`` writes the JSON report."""
    sources = random_sources(workloads, points_per_pair, threads, transactions, seed)
    return run_campaign(PRESET, sources, schemes, executor=executor, output=output)
