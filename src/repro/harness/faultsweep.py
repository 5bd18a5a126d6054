"""Randomized fault-injection campaigns (``silo-repro faultsweep``).

The faulted preset of the one crash-verification campaign
(:mod:`repro.harness.verify`): where ``crashtest`` validates recovery
under clean power failures, this preset turns the device against the
designs.  Its seeded crash points rotate through the fault presets
below (torn drains, dropped WPQ entries, log-region bit errors,
data-region bit errors and a mixed "storm"), each cell is judged by the
fault-aware oracle (:mod:`repro.faults.oracle`), and every cell runs
with the obs metrics registry on, summed over the campaign.  The hard
gate: zero silent corruptions (injected damage recovery absorbed
without reporting), always.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.harness.executor import Executor
from repro.harness.verify import (
    RANDOM_DESIGNS,
    CampaignResult,
    Preset,
    random_sources,
    run_campaign,
)
from repro.obs import ObsConfig

#: Fault presets rotated across crash points.  ``clean`` keeps a
#: no-fault control in every campaign so clean-crash behaviour is
#: continuously pinned against the fault machinery.
FAULT_PRESETS: Tuple[Tuple[str, Optional[Dict[str, object]]], ...] = (
    ("clean", None),
    ("tear", {"tear_prob": 0.7}),
    ("drop", {"drop_prob": 0.7}),
    ("logflip", {"log_bitflips": 2}),
    ("dataflip", {"data_bitflips": 3}),
    ("storm", {"tear_prob": 0.3, "drop_prob": 0.3, "log_bitflips": 1, "data_bitflips": 2}),
)

PRESET = Preset(
    name="faultsweep",
    title="Fault-injection sweep (fault-aware atomic durability)",
    obs=ObsConfig(metrics=True),
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
    smoke: bool = False,
    trace_output: Optional[str] = None,
) -> CampaignResult:
    """Sweep (crash point x fault preset) cells over every (design,
    workload) pair.  ``smoke`` shrinks the grid to one small workload
    and six points; ``output`` writes the JSON report and
    ``trace_output`` a Chrome trace of the first faulted cell."""
    if smoke:
        workloads = ("hash",)
        points_per_pair = min(points_per_pair, 6)
        transactions = min(transactions, 6)
    sources = random_sources(
        workloads, points_per_pair, threads, transactions, seed, FAULT_PRESETS
    )
    return run_campaign(
        PRESET,
        sources,
        schemes,
        executor=executor,
        output=output,
        trace_output=trace_output,
    )
