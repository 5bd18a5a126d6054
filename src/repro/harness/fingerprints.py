"""Bit-exact design fingerprints over a fixed workload battery.

A *fingerprint* is the complete observable surface of one simulated
run — ``end_cycle``, the committed transaction set, and every stats
counter — for one design on one fixed workload.  The battery covers a
clean run, a mid-run crash (with recovery), and the end-boundary crash
(after the last op retires, before the clean drain), because those are
the three regimes in which a design's persist ordering, stall
arithmetic, and recovery walk are all exercised.

``benchmarks/gen_design_fingerprints.py`` serializes the battery to
``tests/data/golden/design_fingerprints.json``;
``tests/integration/test_design_fingerprints.py`` pins the legacy
designs against the fixture captured *before* the policy-framework
refactor, so the ports are provably bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

#: The fixed workload battery.  Parameters are chosen to exercise
#: rewrites, silent stores, multi-thread interleaving, and cache
#: evictions (write sets larger than a handful of lines) while staying
#: fast enough to fingerprint the whole catalog in a few seconds.
WORKLOADS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    (
        "mixed_2t",
        dict(
            threads=2,
            transactions_per_thread=6,
            write_set_words=24,
            rewrite_fraction=0.4,
            silent_fraction=0.2,
            arena_words=192,
            loads_per_store=0.25,
            seed=1009,
        ),
    ),
    (
        "large_1t",
        dict(
            threads=1,
            transactions_per_thread=3,
            write_set_words=96,
            rewrite_fraction=0.15,
            silent_fraction=0.0,
            arena_words=256,
            loads_per_store=0.1,
            seed=2027,
        ),
    ),
)

#: Crash points as fractions of the total op count; ``1.0`` is the
#: end-boundary crash (fires after the last op retires, before the
#: clean drain).
CRASH_FRACTIONS: Tuple[Tuple[str, float], ...] = (
    ("clean", -1.0),
    ("crash_mid", 0.45),
    ("crash_end", 1.0),
)


def _run_one(scheme_name: str, params: Dict[str, float], fraction: float):
    trace = synthetic_trace(SyntheticTraceConfig(**params))
    system = System(SystemConfig.table2(max(int(params["threads"]), 1)))
    scheme = SchemeRegistry.create(scheme_name, system)
    crash_plan = None
    if fraction >= 0:
        total_ops = trace.total_ops
        crash_plan = CrashPlan(at_op=min(int(fraction * total_ops), total_ops))
    engine = TransactionEngine(system, scheme, trace, crash_plan=crash_plan)
    result = engine.run()
    return system, trace, result


def fingerprint_design(scheme_name: str) -> Dict[str, Dict[str, object]]:
    """Fingerprint one design over the whole battery.

    Returns ``{cell_name: {end_cycle, committed, stats}}``.  Crashed
    cells are additionally verified for atomic durability so a fixture
    can never pin a corrupting design.
    """
    cells: Dict[str, Dict[str, object]] = {}
    for workload_name, params in WORKLOADS:
        for crash_name, fraction in CRASH_FRACTIONS:
            system, trace, result = _run_one(scheme_name, params, fraction)
            if fraction >= 0:
                mismatches = check_atomic_durability(
                    system, trace, result.committed
                )
                if mismatches:
                    raise AssertionError(
                        f"{scheme_name}/{workload_name}/{crash_name}: "
                        f"atomic durability violated: {mismatches[:3]}"
                    )
            cells[f"{workload_name}.{crash_name}"] = {
                "end_cycle": result.end_cycle,
                "committed": sorted(map(list, result.committed)),
                "stats": {
                    k: v for k, v in sorted(result.stats.as_dict().items())
                },
            }
    return cells


def collect_fingerprints(names: List[str] | None = None) -> Dict[str, object]:
    """Fingerprint ``names`` (default: the whole registry)."""
    if names is None:
        names = SchemeRegistry.names()
    return {
        "workloads": [name for name, _ in WORKLOADS],
        "crash_points": [name for name, _ in CRASH_FRACTIONS],
        "designs": {name: fingerprint_design(name) for name in sorted(names)},
    }
