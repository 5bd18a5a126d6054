"""Exact-vs-columnar equivalence gate over the experiment catalog.

The columnar engine is only admissible because it is *bit-identical*:
every campaign must produce the same simulated results under either
engine.  This module runs the full experiment registry (smoke
parameters by default) under both engines and compares three layers:

* **Manifests** — the campaign manifests must be byte-equal after
  normalization.  A manifest records each cell's content address and
  cache status; the engine is deliberately part of the address (so
  both engines really execute) and cache status depends on run order,
  so the comparison strips exactly those two fields — ``engine``
  inside each cell spec and the per-cell ``cached`` flag — and then
  requires byte equality of the canonical JSON encoding.
* **Result payloads** — each experiment's assembled figure/table
  payload (``to_json_payload()``), compared byte-for-byte with no
  normalization at all.
* **Cell results** — per-cell ``end_cycle``, committed set and the
  full stats counter mapping, compared value-for-value.

It also accounts the columnar engine's fused coverage: a cell whose
``fast_fraction`` is zero ran entirely through the exact path, and a
catalog where more than half the simulated cells silently fall back
fails the gate (the fast engine would be decorative).

Beyond the catalog, the gate runs dedicated **stress cells** for the
paths smoke campaigns barely touch: an eviction-storm workload (arena
far larger than the cache, so on-PM-buffer writeback storms dominate)
and a finalize-heavy one (large dirty-line tails drained at end of
run).  Those cells must be bit-identical *and* fully fused
(``fast_fraction == 1.0``) — morlog/fwb eviction storms falling back
to the exact path is exactly the coverage regression this gate exists
to catch.

A **hot-path row** runs the write-heavy ``ycsb`` and ``tpcc`` workloads
(8 cores, 40 transactions per thread) over every registered design.
Each cell must be bit-identical between engines, and every design
whose class declares its own ``spec.columnar_profile`` (the designs
with fused kernels) must run it fully fused.

CI entry point::

    PYTHONPATH=src python -m repro.harness.equivalence
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.executor import Executor
from repro.harness.experiments import load_all, run_campaign


def normalized_manifest(manifest: Dict[str, Any]) -> str:
    """Canonical JSON of a campaign manifest with the two
    engine-dependent fields removed (see module docstring)."""
    clean = json.loads(json.dumps(manifest, sort_keys=True))
    for cell in clean.get("cells", []):
        cell.pop("cached", None)
        spec = cell.get("spec")
        if isinstance(spec, dict):
            spec.pop("engine", None)
    return json.dumps(clean, sort_keys=True)


@dataclass
class EquivalenceReport:
    """Outcome of one exact-vs-columnar catalog comparison."""

    smoke: bool
    experiments: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    simulated_cells: int = 0
    full_fallback_cells: int = 0
    delegated_cells: int = 0
    stress_cells: int = 0
    hotpath_cells: int = 0
    #: Lowest ``fast_fraction`` per design over its hot-path cells.
    hotpath_fast_fraction: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.excessive_fallback

    @property
    def excessive_fallback(self) -> bool:
        return self.full_fallback_cells * 2 > max(1, self.simulated_cells)

    def format_report(self) -> str:
        lines = [
            f"engine equivalence over {len(self.experiments)} experiments "
            f"({'smoke' if self.smoke else 'full'} catalog): "
            f"{self.simulated_cells} simulated cells, "
            f"{self.full_fallback_cells} full fallbacks, "
            f"{self.delegated_cells} delegated, "
            f"{self.stress_cells} stress cells, "
            f"{self.hotpath_cells} hot-path cells",
        ]
        if self.hotpath_fast_fraction:
            lines.append(
                "hot-path fast_fraction: "
                + ", ".join(
                    f"{name} {frac:.3f}"
                    for name, frac in sorted(self.hotpath_fast_fraction.items())
                )
            )
        if self.excessive_fallback:
            lines.append(
                "FAIL: columnar engine silently fell back on more than "
                "half the catalog"
            )
        for m in self.mismatches:
            lines.append(f"MISMATCH: {m}")
        if self.ok:
            lines.append("OK: manifests, payloads and cell results match")
        return "\n".join(lines)


def compare_results(report: EquivalenceReport, where: str, exact, col) -> None:
    """Append any ``end_cycle``/committed/counter divergence between an
    exact and a columnar run result to ``report.mismatches``."""
    if exact.end_cycle != col.end_cycle:
        report.mismatches.append(
            f"{where}: end_cycle {exact.end_cycle} != {col.end_cycle}"
        )
    if exact.committed != col.committed:
        report.mismatches.append(f"{where}: committed differs")
    if dict(exact.stats.counters) != dict(col.stats.counters):
        report.mismatches.append(f"{where}: stats counters differ")


def check_engine_equivalence(
    smoke: bool = True,
    jobs: int = 1,
    names: Optional[List[str]] = None,
) -> EquivalenceReport:
    """Run the experiment catalog under both engines and compare.

    Uses cacheless executors: a cache hit would compare an engine
    against a stored copy of itself and prove nothing.
    """
    registry = load_all()
    specs = (
        registry.specs()
        if names is None
        else [registry.get(name) for name in names]
    )
    report = EquivalenceReport(smoke=smoke)
    for spec in specs:
        report.experiments.append(spec.name)
        result_exact, campaign_exact = run_campaign(
            spec, executor=Executor(jobs=jobs), smoke=smoke, engine="exact"
        )
        result_col, campaign_col = run_campaign(
            spec, executor=Executor(jobs=jobs), smoke=smoke, engine="columnar"
        )

        if normalized_manifest(campaign_exact.manifest()) != normalized_manifest(
            campaign_col.manifest()
        ):
            report.mismatches.append(f"{spec.name}: manifest differs")
        payload_exact = json.dumps(
            result_exact.to_json_payload(), sort_keys=True, default=repr
        )
        payload_col = json.dumps(
            result_col.to_json_payload(), sort_keys=True, default=repr
        )
        if payload_exact != payload_col:
            report.mismatches.append(f"{spec.name}: result payload differs")

        for (point, oe), (_, oc) in zip(
            campaign_exact.cells(), campaign_col.cells()
        ):
            re_, rc = oe.result, oc.result
            report.simulated_cells += 1
            stats = oc.engine_stats or {}
            if stats.get("delegated"):
                report.delegated_cells += 1
            elif stats.get("fast_fraction", 0.0) == 0.0:
                report.full_fallback_cells += 1
            if not hasattr(re_, "end_cycle"):
                continue  # trace-statistics cells carry no run result
            compare_results(report, f"{spec.name} {point}", re_, rc)
    return report


#: Stress cells for the fused paths the smoke catalog barely touches:
#: ``(label, synthetic-trace kwargs, schemes, must_fuse)``.  The
#: eviction-heavy cell's arena (512 KiB of words) dwarfs the cache, so
#: on-PM-buffer writeback storms dominate; the finalize-heavy cell
#: leaves each core hundreds of dirty lines to drain at end of run.
#: ``must_fuse`` demands ``fast_fraction == 1.0``: these schemes have
#: fused eviction/finalize kernels, and silently losing them is the
#: coverage regression this gate exists to catch.
STRESS_CELLS = (
    (
        "eviction-heavy",
        dict(
            threads=4,
            transactions_per_thread=20,
            write_set_words=64,
            rewrite_fraction=0.1,
            silent_fraction=0.0,
            loads_per_store=1.0,
            arena_words=65536,
            seed=5,
        ),
        ("morlog", "fwb", "silo", "swlog", "wrap"),
        True,
    ),
    (
        "morlog-finalize-heavy",
        dict(
            threads=2,
            transactions_per_thread=10,
            write_set_words=200,
            rewrite_fraction=0.0,
            silent_fraction=0.0,
            loads_per_store=0.0,
            arena_words=8192,
            seed=9,
        ),
        ("morlog", "fwb"),
        True,
    ),
    # Policy-assembled catalog entries take the generic (unfused) path
    # in the columnar engine; the cell still must be bit-identical
    # between engines, it just is not required to fuse.
    (
        "policy-catalog",
        dict(
            threads=2,
            transactions_per_thread=12,
            write_set_words=96,
            rewrite_fraction=0.2,
            silent_fraction=0.0,
            loads_per_store=0.5,
            arena_words=16384,
            seed=13,
        ),
        ("aglog", "quadra1f", "trinity2f", "redolog4f"),
        False,
    ),
)


def run_both_engines(trace, scheme_name: str, cores: int):
    """Run ``trace`` on fresh Table II systems under both engines;
    return ``(exact result, columnar result, columnar engine)``."""
    from repro.common.config import SystemConfig
    from repro.designs.scheme import SchemeRegistry
    from repro.sim.columnar import ColumnarEngine
    from repro.sim.engine import TransactionEngine
    from repro.sim.system import System

    sys_exact = System(SystemConfig.table2(cores))
    exact = TransactionEngine(
        sys_exact, SchemeRegistry.create(scheme_name, sys_exact), trace
    ).run()
    sys_col = System(SystemConfig.table2(cores))
    engine = ColumnarEngine(
        sys_col, SchemeRegistry.create(scheme_name, sys_col), trace
    )
    col = engine.run()
    return exact, col, engine


def check_fused(report: EquivalenceReport, where: str, stats: dict) -> None:
    """Append a mismatch unless the columnar run was fully fused."""
    if stats["fast_fraction"] != 1.0:
        report.mismatches.append(
            f"{where}: fast_fraction {stats['fast_fraction']:.3f} "
            f"!= 1.0 (fallbacks: {stats['fallback_reasons']})"
        )


def check_stress_cells(report: EquivalenceReport) -> None:
    """Run the stress cells under both engines; append any divergence
    or lost fusion to ``report.mismatches``."""
    from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

    for label, kwargs, schemes, must_fuse in STRESS_CELLS:
        trace = synthetic_trace(SyntheticTraceConfig(**kwargs))
        for scheme_name in schemes:
            report.stress_cells += 1
            where = f"stress {label}/{scheme_name}"
            exact, col, engine = run_both_engines(
                trace, scheme_name, kwargs["threads"]
            )
            compare_results(report, where, exact, col)
            if must_fuse:
                check_fused(report, where, engine.engine_stats())


#: The hot-path row: write-heavy workloads (skewed read-modify-writes
#: in ycsb, large write sets in tpcc) at 8 cores keep every simulator
#: layer busy, so a fused kernel that stops proving identity on them
#: shows up as ``fast_fraction < 1.0``.
HOTPATH_WORKLOADS = ("ycsb", "tpcc")
HOTPATH_CORES = 8
HOTPATH_TRANSACTIONS = 40


def declares_columnar_profile(scheme) -> bool:
    """Whether the design's class declares its *own* columnar profile.

    This is the columnar engine's own fusion rule (``_make_stepper``
    reads ``type(scheme).__dict__["spec"]``): a design that merely
    inherits a fused design's spec runs unfused.
    """
    spec = type(scheme).__dict__.get("spec")
    return spec is not None and spec.columnar_profile is not None


def check_hotpath_cells(
    report: EquivalenceReport,
    workloads=HOTPATH_WORKLOADS,
    schemes: Optional[List[str]] = None,
    cores: int = HOTPATH_CORES,
    transactions: int = HOTPATH_TRANSACTIONS,
) -> None:
    """Run the hot-path row (every registered design by default) under
    both engines.  Every cell must be bit-identical; a design that
    declares a columnar profile must also run fully fused."""
    from repro.designs.scheme import SchemeRegistry
    from repro.workloads.registry import build_workload

    names = list(schemes) if schemes is not None else SchemeRegistry.names()
    for workload in workloads:
        trace = build_workload(workload, threads=cores, transactions=transactions)
        for scheme_name in names:
            report.hotpath_cells += 1
            where = f"hotpath {workload}@{cores}/{scheme_name}"
            exact, col, engine = run_both_engines(trace, scheme_name, cores)
            compare_results(report, where, exact, col)
            stats = engine.engine_stats()
            if declares_columnar_profile(engine.scheme):
                check_fused(report, where, stats)
            report.hotpath_fast_fraction[scheme_name] = min(
                stats["fast_fraction"],
                report.hotpath_fast_fraction.get(scheme_name, 1.0),
            )


#: Crash-point boundary cells: ``at_op=0`` (power fails before any
#: operation executes) and ``at_op == total_ops`` (power fails after
#: the last operation retires, before the clean end-of-run drain).
#: The PR-6 drain/crash end_cycle contract only pins interior crash
#: points; these two pin the boundary semantics — both engines must
#: produce bit-identical results (the columnar engine delegates
#: crash-plan runs, and that delegation must cover the boundaries) and
#: recovery must satisfy atomic durability at each.
BOUNDARY_SCHEMES = (
    "base",
    "fwb",
    "morlog",
    "silo",
    "swlog",
    "aglog",
    "quadra1f",
    "redolog4f",
)


def check_boundary_cells(report: EquivalenceReport) -> None:
    """Run the two crash-point boundary cells under both engines;
    append any divergence or oracle violation to ``report.mismatches``."""
    from repro.harness.executor import CellSpec, WorkloadSpec, execute_cell
    from repro.harness.verify import judge
    from repro.sim.crash import CrashPlan

    workload = WorkloadSpec.make("hash", threads=2, transactions=4)
    for at_op in (0, workload.build().total_ops):
        for scheme_name in BOUNDARY_SCHEMES:
            report.stress_cells += 1
            where = f"boundary at_op={at_op}/{scheme_name}"
            results = {}
            for engine_name in ("exact", "columnar"):
                outcome = execute_cell(
                    CellSpec(
                        workload=workload,
                        scheme=scheme_name,
                        cores=2,
                        crash_plan=CrashPlan(at_op=at_op),
                        verify=True,
                        engine=engine_name,
                    )
                )
                if not outcome.result.crashed:
                    report.mismatches.append(
                        f"{where}: {engine_name} engine did not crash"
                    )
                if not judge(outcome).ok:
                    report.mismatches.append(
                        f"{where}: {engine_name} engine violated atomic "
                        "durability"
                    )
                results[engine_name] = outcome.result
            exact, col = results["exact"], results["columnar"]
            compare_results(report, where, exact, col)
            if exact.recovery != col.recovery:
                report.mismatches.append(f"{where}: recovery report differs")


def main(argv: Optional[List[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    smoke = "--full" not in args
    report = check_engine_equivalence(smoke=smoke)
    check_stress_cells(report)
    check_hotpath_cells(report)
    check_boundary_cells(report)
    print(report.format_report())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
