"""Parallel experiment execution with content-addressed caching.

Every harness in this repo ultimately runs a Cartesian grid of
**cells** — fully specified, independent, deterministic simulations
(workload x scheme x cores x config, optionally a crash plan).  This
module is the one execution service they all share:

* :class:`CellSpec` pins down one cell completely, including the
  workload *recipe* (name + builder kwargs) rather than a built trace,
  so a spec is tiny, hashable and picklable;
* :class:`Executor` fans a list of cells out across ``jobs`` worker
  processes (``jobs=1`` is the exact in-process serial path), streams
  per-cell progress/ETA to stderr, isolates failures (a cell that
  raises is reported with its traceback while the campaign continues)
  and consults the ``results`` namespace of the on-disk store
  (:class:`~repro.harness.resultcache.ResultCache`) so previously
  settled cells are served from disk;
* each worker process memoizes trace construction per
  ``(workload, threads, transactions, kwargs)``, so a trace is built
  once and replayed read-only under every scheme — never per cell;
* the store's ``traces`` namespace
  (:class:`~repro.harness.traceartifacts.TraceArtifactStore`) lifts
  trace synthesis + columnar decode out of the per-process memo
  entirely: the parent builds each distinct pending recipe once per
  campaign, workers load the serialized flat columns zero-parse;
* small cells are dispatched in **batches** per pool task (auto-sized
  from a cheap cost estimate, or fixed via ``batch=N`` / ``--batch``),
  so litmus-scale campaigns stop paying one IPC round-trip per cell;
* the worker pool persists across ``run()`` calls, so a catalog sweep
  pays interpreter spawn + imports once, not once per campaign;
* the layer is **resilient**: every outcome carries a ``kind``
  (``ok`` / ``error`` / ``timeout`` / ``infra``) that distinguishes "the
  cell raised" from "the infrastructure died under it"; a per-cell
  wall-clock watchdog (``cell_timeout``) kills a hung worker and
  records a ``timeout``; bounded retries (``retries``) with
  deterministic, jitterless exponential backoff respawn a fresh pool
  after a broken one and re-run only the genuinely-unfinished cells —
  survivors are never blanket-failed; every settled outcome (``ok`` or
  deterministic ``error``) is written to the result store once, the
  moment it finishes, so a ``resume`` run serves them all and re-runs
  only the cells that never settled; and SIGINT drains gracefully,
  raising :class:`CampaignInterrupted` with every settled cell already
  stored instead of a bare stack trace.  None of these options is part
  of a cell's content address: retries and timeouts change *whether
  and when* a cell runs, never what it computes.

Determinism: cells share no mutable state (each gets a fresh
:class:`~repro.sim.system.System`; the engine never mutates the trace;
all workload/crash randomness is seeded ``random.Random``; no
container iteration depends on interpreter hash salting — sets and
dict keys on simulated paths are ints/int-tuples, whose hashes are
unsalted).  A cell's :class:`~repro.sim.results.RunResult` is therefore
bit-identical whatever the jobs count or cache state, which is what
makes the cache sound and ``--jobs N`` a pure wall-clock optimization.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.designs.scheme import SchemeRegistry
from repro.faults.oracle import FaultVerdict, check_fault_aware_durability
from repro.faults.plan import FaultPlan
from repro.harness.resultcache import ResultCache
from repro.harness.store import MISS
from repro.obs import ObsConfig
from repro.sim.columnar import ColumnarEngine
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.trace import Trace
from repro.workloads.registry import build_workload


# ----------------------------------------------------------------------
# Cell specification
# ----------------------------------------------------------------------
def _canon_kwarg(value: Any) -> Any:
    """Canonicalize one workload kwarg value for spec identity.

    JSON round-trips turn tuples into lists; a rebuilt spec must be
    *equal and hashable*, so sequence values are normalized to tuples
    (recursively) on the way in.  Scalars pass through untouched.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_canon_kwarg(v) for v in value)
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for one trace: registry name plus builder arguments.

    ``kwargs`` is a sorted tuple of items so the spec stays hashable
    and its canonical encoding is order-independent.
    """

    name: str
    threads: int
    transactions: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, name: str, threads: int, transactions: int, **kwargs: Any
    ) -> "WorkloadSpec":
        return cls(
            name,
            threads,
            transactions,
            tuple(sorted((k, _canon_kwarg(v)) for k, v in kwargs.items())),
        )

    def build(self) -> Trace:
        """Build (or fetch the per-process memoized) trace.

        When a trace-artifact store is active in this process, a memo
        miss consults it before synthesizing: workers of a store-backed
        executor load the parent's prebuilt artifact (flat columns +
        seeded decode) instead of rebuilding the workload.
        """
        trace = _TRACE_MEMO.get(self)
        if trace is None:
            store = _TRACE_STORE
            if store is not None:
                trace = store.build(self)
            else:
                trace = build_workload(
                    self.name,
                    threads=self.threads,
                    transactions=self.transactions,
                    **dict(self.kwargs),
                )
            _TRACE_MEMO[self] = trace
        return trace


#: Per-process trace memo: one build per (workload, threads,
#: transactions, kwargs), shared read-only across every scheme/cell
#: the process executes.  Worker processes persist across cells, so
#: the memo warms exactly like the serial path's.
_TRACE_MEMO: Dict[WorkloadSpec, Trace] = {}

#: Per-process trace-artifact store (L2 behind the memo), installed by
#: the executor in the parent for the length of one ``run()`` and by
#: :func:`_pool_init` in workers.
_TRACE_STORE = None

#: Per-process chaos plan (test/CI fault injection for the harness
#: itself — see :mod:`repro.harness.chaos`).  ``None`` in production.
_CHAOS = None


def _pool_init(
    store_root: Optional[str],
    fingerprint: Optional[str],
    chaos: Any = None,
) -> None:
    """Worker-process initializer: attach the campaign's trace store
    and (chaos self-tests only) the executor-level fault plan.

    The parent passes the store's *cache root* and its precomputed
    fingerprint, so workers neither rehash the source tree nor rebuild
    traces the parent already serialized.
    """
    global _TRACE_STORE, _CHAOS
    if store_root is not None:
        from repro.harness.traceartifacts import TraceArtifactStore

        _TRACE_STORE = TraceArtifactStore(store_root, fingerprint)
    _CHAOS = chaos


@dataclass(frozen=True)
class CellSpec:
    """One fully-specified experiment cell.

    ``scheme=None`` is a *trace-statistics* cell: no simulation runs,
    the outcome carries a :class:`TraceStats` (Fig. 4 uses this).
    ``config=None`` means the Table II configuration at ``cores``.
    ``verify=True`` additionally runs the atomic-durability oracle on
    the post-run system and stores its mismatches in the outcome —
    the *fault-aware* oracle when the cell carries a ``fault_plan``
    (its unattributed mismatches and silent corruptions are the
    failures), the exact clean oracle otherwise.
    ``obs`` enables the observability layer for the cell; it is part
    of the content address (an obs-enabled outcome carries events and
    metrics a plain one does not, so they must not share a cache slot).
    ``engine`` selects the execution engine (``exact`` or the
    bit-identical batched ``columnar``); it is part of the content
    address too — not because the results may differ (they must not),
    but because a columnar outcome carries engine diagnostics and the
    cache must be able to answer "has this cell run under engine X"
    when the equivalence gate compares engines.
    ``capture_image=True`` additionally snapshots the post-recovery PM
    media over the trace's touched words into the outcome — the litmus
    oracle judges recovered images declaratively, outside the cell.
    It joins the content address (only when set, so every pre-existing
    cache entry keeps its address): a captured outcome carries data a
    plain one does not.
    """

    workload: WorkloadSpec
    scheme: Optional[str]
    cores: int
    config: Optional[SystemConfig] = None
    crash_plan: Optional[CrashPlan] = None
    fault_plan: Optional[FaultPlan] = None
    verify: bool = False
    obs: Optional[ObsConfig] = None
    engine: str = "exact"
    capture_image: bool = False

    def __post_init__(self) -> None:
        # Fail at campaign construction, not inside a worker: a typo'd
        # design name gets the did-you-mean ConfigError before any
        # cell is dispatched.
        if self.scheme is not None and self.scheme not in SchemeRegistry._schemes:
            raise SchemeRegistry.unknown_scheme_error(self.scheme)

    def effective_config(self) -> SystemConfig:
        return self.config if self.config is not None else SystemConfig.table2(self.cores)


@dataclass(frozen=True)
class TraceStats:
    """Lightweight trace metrics for ``scheme=None`` cells."""

    mean_write_size_bytes: float
    total_transactions: int
    total_ops: int


#: Outcome kinds a retry may fix: the infrastructure failed, not the
#: cell.  ``error`` is deterministic (the cell itself raised) and is
#: never retried.
RETRYABLE_KINDS = ("timeout", "infra")


@dataclass
class CellOutcome:
    """What one cell produced.

    Exactly one of ``result`` / ``error`` is set.  ``seconds`` holds
    the one wall time measured where the cell actually ran (a 1-tuple;
    cache hits replay the recorded time of the original run).

    ``kind`` classifies the outcome:

    * ``ok`` — the cell completed and ``result`` is set;
    * ``error`` — the cell's own code raised (deterministic; retrying
      would reproduce it bit-for-bit, so it is never retried);
    * ``timeout`` — the cell exceeded its wall-clock allowance and the
      watchdog killed its worker (retries exhausted, if any);
    * ``infra`` — the execution infrastructure died under the cell (a
      broken pool, a killed worker, a cancelled future) with every
      retry exhausted; the cell itself never misbehaved.

    ``attempts`` counts how many times the cell was dispatched;
    ``retry_reasons`` records, in order, why each earlier attempt was
    thrown away.  Resilience metadata never joins the content address:
    a retried cell's ``result`` is bit-identical to a first-try run's.
    """

    spec: CellSpec
    result: Any = None
    seconds: Tuple[float, ...] = ()
    #: Oracle failures: raw mismatches for clean verify cells, the
    #: *unattributed* mismatches for fault cells (damage an injected
    #: and reported fault explains is not a failure).
    mismatches: Optional[list] = None
    #: Full fault-aware oracle verdict, for cells with a fault plan.
    fault_verdict: Optional[FaultVerdict] = None
    error: Optional[str] = None
    cached: bool = False
    #: Engine diagnostics (``ColumnarEngine.engine_stats()``) for
    #: non-exact engines: fused/exact op counts and delegation reason.
    engine_stats: Optional[dict] = None
    #: Post-recovery PM image over the trace's touched words, for
    #: ``capture_image=True`` cells (the litmus oracle's input).
    image: Optional[Dict[int, int]] = None
    #: ``ok`` / ``error`` / ``timeout`` / ``infra`` (see class docs).
    kind: str = "ok"
    #: Times this cell was dispatched (1 = first try succeeded).
    attempts: int = 1
    #: Why each earlier attempt was discarded, oldest first.
    retry_reasons: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


def spec_key(spec: CellSpec) -> str:
    """Canonical JSON encoding of a cell spec, for content addressing.

    Uses the *effective* configuration so ``config=None`` and an
    explicit ``SystemConfig.table2(cores)`` address the same entry.
    """
    payload = {
        "workload": {
            "name": spec.workload.name,
            "threads": spec.workload.threads,
            "transactions": spec.workload.transactions,
            "kwargs": {k: v for k, v in spec.workload.kwargs},
        },
        "scheme": spec.scheme,
        "cores": spec.cores,
        "config": asdict(spec.effective_config()),
        "crash_plan": asdict(spec.crash_plan) if spec.crash_plan else None,
        "fault_plan": (
            spec.fault_plan.to_json_dict() if spec.fault_plan else None
        ),
        "verify": spec.verify,
        # A retired field, kept constant so no cell address moves.
        "repeats": 1,
        "obs": spec.obs.to_json_dict() if spec.obs is not None else None,
    }
    if spec.engine != "exact":
        # Emitted only for non-default engines so every pre-existing
        # cache entry (and golden manifest) keeps its address.
        payload["engine"] = spec.engine
    if spec.capture_image:
        # Same reasoning: default-off, emitted only when set.
        payload["capture_image"] = True
    return json.dumps(payload, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# Cell execution (runs in workers and on the jobs=1 path alike)
# ----------------------------------------------------------------------
def execute_cell(spec: CellSpec) -> CellOutcome:
    """Run one cell to completion; exceptions propagate to the caller."""
    trace = spec.workload.build()
    if spec.scheme is None:
        stats = TraceStats(
            mean_write_size_bytes=trace.mean_write_size_bytes(),
            total_transactions=trace.total_transactions,
            total_ops=trace.total_ops,
        )
        return CellOutcome(spec=spec, result=stats)

    config = spec.effective_config()
    if spec.engine == "exact":
        engine_cls = TransactionEngine
    elif spec.engine == "columnar":
        engine_cls = ColumnarEngine
    else:
        raise ConfigError(
            f"unknown engine {spec.engine!r} (exact or columnar)"
        )
    system = System(config, obs=spec.obs)
    scheme = SchemeRegistry.create(spec.scheme, system)
    engine = engine_cls(
        system,
        scheme,
        trace,
        crash_plan=spec.crash_plan,
        fault_plan=spec.fault_plan,
    )
    started = time.perf_counter()
    result = engine.run()
    seconds = (time.perf_counter() - started,)
    engine_stats = (
        engine.engine_stats() if hasattr(engine, "engine_stats") else None
    )
    mismatches = None
    fault_verdict = None
    if spec.verify:
        if spec.fault_plan is not None:
            fault_verdict = check_fault_aware_durability(system, trace, result)
            mismatches = list(fault_verdict.unattributed)
        else:
            mismatches = check_atomic_durability(system, trace, result.committed)
    image = None
    if spec.capture_image:
        media = system.pm.media
        image = {
            addr: media.read_word(addr)
            for addr in sorted(trace.touched_words())
        }
    return CellOutcome(
        spec=spec,
        result=result,
        seconds=seconds,
        mismatches=mismatches,
        fault_verdict=fault_verdict,
        engine_stats=engine_stats,
        image=image,
    )


def _execute_safely(spec: CellSpec) -> CellOutcome:
    try:
        return execute_cell(spec)
    except (KeyboardInterrupt, SystemExit):
        # Interrupts drain at the campaign level (graceful SIGINT
        # handling); swallowing them here would mislabel a user's ^C
        # as a failed cell.
        raise
    except BaseException:
        return CellOutcome(
            spec=spec, error=traceback.format_exc(), kind="error"
        )


def _worker_batch(
    items: Sequence[Tuple[int, CellSpec, int]]
) -> List[Tuple[int, CellOutcome]]:
    """Run a batch of cells in one pool task (one IPC round-trip).

    Each item carries its campaign-level attempt number so the chaos
    plan (when one is installed) can target first attempts only —
    injected faults must converge under retry, like real ones.
    """
    results = []
    for index, spec, attempt in items:
        if _CHAOS is not None:
            # May kill this worker, hang, or raise a transient error;
            # raising here (outside _execute_safely) makes the whole
            # task fail, which the parent classifies as ``infra``.
            _CHAOS.preflight(spec_key(spec), attempt)
        results.append((index, _execute_safely(spec)))
    return results


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
#: Hard cap on cells per pool task: keeps a single task's result
#: payload (and the blast radius of a dying worker) bounded.
MAX_BATCH = 32

#: Auto-batching granularity: aim for about this many tasks per
#: worker, so stragglers still load-balance.
BATCHES_PER_WORKER = 4

#: ``cell_timeout="auto"``: a task's allowance is FACTOR x the slowest
#: observed seconds-per-cost-unit x the task's cost estimate, but never
#: below MIN seconds — generous enough that honest variance can't trip
#: it, tight enough that a truly hung worker is reaped within minutes.
AUTO_TIMEOUT_FACTOR = 50.0
AUTO_TIMEOUT_MIN = 30.0


@dataclass
class CampaignStats:
    """Cumulative accounting across every ``run()`` of one executor.

    ``failures`` counts final not-ok outcomes of any kind; ``errors``,
    ``timeouts_final`` and ``infra_final`` break them down.
    ``timeouts`` and ``infra`` count *events* (including ones a retry
    later repaired); ``retries`` counts cell re-dispatches.
    """

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    errors: int = 0
    timeouts: int = 0
    timeouts_final: int = 0
    infra: int = 0
    infra_final: int = 0
    retries: int = 0
    elapsed_seconds: float = 0.0


class CampaignInterrupted(ExecutionError):
    """Raised when a campaign drains after SIGINT.

    Carries everything the caller needs to report a *graceful* partial
    stop: the completed outcomes (each settled one already in the
    result store, when one is attached) and the total cell count.
    """

    def __init__(self, outcomes: List[CellOutcome], total: int):
        self.outcomes = outcomes
        self.total = total
        super().__init__(
            f"campaign interrupted: {len(outcomes)} of {total} cells "
            "completed (settled cells are stored — re-run with --resume "
            "to continue where it stopped)"
        )


class Executor:
    """Process-pool execution service for experiment cells.

    ``jobs=None`` uses :func:`os.cpu_count`; ``jobs=1`` runs every
    cell in the calling process, in order — the exact historical
    serial path (same trace memo, same per-cell code).  ``cache`` is a
    :class:`ResultCache` or ``None`` (no reads, no writes); ``fresh``
    recomputes every cell but still writes the cache.  Each settled
    cell (``ok`` or ``error``) is written once per run; a lookup serves
    only ``ok`` outcomes unless ``resume`` is set, when stored errors
    are served too, so an interrupted campaign re-runs only the cells
    that never settled.  ``progress`` streams ``done/total`` + ETA
    lines to stderr.

    ``batch`` sets how many cells ride one pool task: ``None``
    auto-sizes batches from a cheap per-cell cost estimate (targeting
    a few tasks per worker, capped at :data:`MAX_BATCH` cells), an
    explicit ``N`` fixes the chunk size (``1`` restores one task per
    cell).  Batching only changes dispatch packaging — per-cell
    results, cache entries and outcome order are identical.

    ``trace_store`` attaches a
    :class:`~repro.harness.traceartifacts.TraceArtifactStore`: the
    parent prebuilds every distinct pending workload recipe once per
    ``run()``, and worker processes load the serialized artifacts
    instead of re-synthesizing traces.

    The worker pool **persists across** ``run()`` **calls**: a catalog
    sweep (``exp run --all``) reuses one set of warm worker processes
    instead of paying interpreter spawn + imports per campaign, and
    the workers' trace memos stay warm with them.  ``close()`` (or the
    context-manager form) shuts the pool down symmetrically — queued
    futures cancelled, worker processes reaped — and an executor that
    is garbage-collected or a pool whose worker died are cleaned up
    automatically.

    Resilience options (none joins a cell's content address):

    ``cell_timeout`` arms a wall-clock watchdog per pool task: a task
    running longer than ``cell_timeout x cells-in-task`` seconds has
    its worker killed and its cells recorded as ``timeout`` (or
    retried).  The string ``"auto"`` calibrates the allowance from the
    slowest completion observed this run (see :meth:`_batch_allowance`).
    Timeouts need process isolation, so ``jobs=1`` ignores them.

    ``retries`` re-dispatches cells whose outcome kind is retryable
    (``timeout``/``infra``) up to N extra times, with deterministic
    jitterless exponential backoff (``retry_backoff * 2**attempt``
    seconds) between rounds.  A broken pool is respawned fresh; cells
    that already finished are never re-run or blanket-failed.

    ``chaos`` installs a :class:`~repro.harness.chaos.ChaosPlan` in
    every worker (self-test only: injected kills/hangs/transient
    raises must be invisible in final results).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        fresh: bool = False,
        progress: bool = False,
        batch: Optional[int] = None,
        trace_store=None,
        cell_timeout=None,
        retries: int = 0,
        retry_backoff: float = 0.5,
        resume: bool = False,
        chaos=None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache
        self.fresh = fresh
        self.progress = progress
        self.batch = batch
        self.trace_store = trace_store
        if cell_timeout is not None and cell_timeout != "auto":
            cell_timeout = float(cell_timeout)
            if cell_timeout <= 0:
                cell_timeout = None
        self.cell_timeout = cell_timeout
        self.retries = max(0, int(retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.resume = resume
        self.chaos = chaos
        self.stats = CampaignStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None
        #: Slowest observed seconds-per-cost-unit, for "auto" timeouts.
        self._auto_rate: Optional[float] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Teardown is symmetric with startup: queued futures are
        cancelled *and* worker processes are joined, so no child ever
        outlives a ``with Executor(...)`` block."""
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _kill_pool_workers(self) -> None:
        """Forcibly kill every worker, then reap the pool.

        Used by the watchdog (a hung cell cannot be cancelled, only
        killed) and the SIGINT drain.  The kill makes the subsequent
        ``shutdown(wait=True)`` return promptly."""
        pool = self._pool
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _get_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, created lazily.  Worker processes are
        spawned on demand up to ``jobs``, initialized once with this
        executor's trace-store coordinates (and chaos plan, if any)."""
        if self._pool is None:
            store = self.trace_store
            initargs = (
                (str(store.root), store.fingerprint)
                if store is not None
                else (None, None)
            ) + (self.chaos,)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_init,
                initargs=initargs,
            )
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=True, cancel_futures=True
            )
        return self._pool

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        """Execute every cell; outcomes are returned in input order.

        Raises :class:`CampaignInterrupted` on SIGINT/``^C``: the pool
        is torn down, settled outcomes stay in the attached result
        store, and the exception carries them for a graceful partial
        report instead of a bare stack trace.
        """
        global _TRACE_STORE
        # Only this run's cells may read or fill this executor's store:
        # a later store-less run (or a direct ``execute_cell``) must not
        # write into a store whose owner has moved on.
        _TRACE_STORE = self.trace_store
        try:
            return self._run(cells)
        finally:
            _TRACE_STORE = None

    def _run(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        started = time.monotonic()
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        pending: List[int] = []

        for index, spec in enumerate(cells):
            if self.cache is not None and not self.fresh:
                hit = self.cache.get(spec_key(spec), errors=self.resume)
                if hit is not MISS and isinstance(hit, CellOutcome):
                    hit.cached = True
                    outcomes[index] = hit
                    self.stats.cache_hits += 1
                    if not hit.ok:
                        self.stats.failures += 1
                    continue
            pending.append(index)

        served = len(cells) - len(pending)
        self.stats.cells += len(cells)
        done_live = 0

        if self.trace_store is not None and pending:
            self._prebuild_traces(cells, pending)

        #: index -> why each earlier attempt was discarded, in order.
        reasons: Dict[int, List[str]] = {}

        def finish(index: int, outcome: CellOutcome, attempt: int) -> None:
            nonlocal done_live
            outcome.attempts = attempt + 1
            outcome.retry_reasons = tuple(reasons.get(index, ()))
            outcomes[index] = outcome
            done_live += 1
            self.stats.executed += 1
            if not outcome.ok:
                self.stats.failures += 1
                if outcome.kind == "timeout":
                    self.stats.timeouts_final += 1
                elif outcome.kind == "infra":
                    self.stats.infra_final += 1
                else:
                    self.stats.errors += 1
            if self.cache is not None and outcome.kind in ("ok", "error"):
                # Settled outcomes are stored; timeout/infra describe
                # the infrastructure and must re-run on resume.
                self.cache.put(spec_key(outcome.spec), outcome)
            self._report(
                served + done_live, len(cells), served, started, done_live, len(pending)
            )
            interrupt_after = getattr(self.chaos, "interrupt_after", None)
            if interrupt_after is not None and done_live >= interrupt_after:
                # Parent-side chaos: simulate a SIGINT landing mid-
                # campaign, after N completions (drain-path self-test).
                raise KeyboardInterrupt

        try:
            attempt = 0
            unfinished = list(pending)
            while unfinished:
                retryable: List[Tuple[int, str, str]] = []

                def defer(index: int, kind: str, reason: str) -> None:
                    """Record a retry candidate: this attempt produced
                    no deterministic outcome for the cell."""
                    retryable.append((index, kind, reason))
                    if kind == "timeout":
                        self.stats.timeouts += 1
                    else:
                        self.stats.infra += 1

                if self.jobs == 1 or len(unfinished) <= 1:
                    for index in unfinished:
                        finish(index, _execute_safely(cells[index]), attempt)
                else:
                    self._run_attempt(cells, unfinished, attempt, finish, defer)

                if not retryable:
                    break
                if attempt >= self.retries:
                    # Out of budget: the retryable kinds become final
                    # outcomes, attributed with every failed attempt.
                    for index, kind, reason in retryable:
                        finish(
                            index,
                            CellOutcome(
                                spec=cells[index], error=reason, kind=kind
                            ),
                            attempt,
                        )
                    break
                for index, kind, reason in retryable:
                    reasons.setdefault(index, []).append(
                        f"attempt {attempt + 1} {kind}: "
                        f"{reason.strip().splitlines()[-1]}"
                    )
                self.stats.retries += len(retryable)
                attempt += 1
                if self.retry_backoff:
                    # Deterministic, jitterless exponential backoff:
                    # identical schedules on identical campaigns.
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                unfinished = [index for index, _, _ in retryable]
        except KeyboardInterrupt:
            # Graceful drain: kill the workers (a second ^C must not be
            # needed), keep every completed outcome — settled ones are
            # stored already — and hand the caller a partial campaign.
            self._kill_pool_workers()
            self.stats.elapsed_seconds += time.monotonic() - started
            completed = [o for o in outcomes if o is not None]
            raise CampaignInterrupted(completed, len(cells)) from None

        self.stats.elapsed_seconds += time.monotonic() - started
        self._report(
            len(cells), len(cells), served, started, done_live, len(pending), final=True
        )
        return [o for o in outcomes if o is not None]

    # ------------------------------------------------------------------
    def _prebuild_traces(self, cells, pending) -> None:
        """Build every distinct pending workload recipe once, in the
        parent, so workers (and the serial path) only ever load
        artifacts."""
        store = self.trace_store
        seen = set()
        for index in pending:
            wspec = cells[index].workload
            if wspec in seen:
                continue
            seen.add(wspec)
            memo = _TRACE_MEMO.get(wspec)
            if memo is not None:
                # Already built in this process (e.g. an earlier plain
                # run): serialize it so workers can still load it.
                store.ensure(wspec, memo)
            else:
                _TRACE_MEMO[wspec] = store.build(wspec)

    # ------------------------------------------------------------------
    def _cell_cost(self, spec: CellSpec) -> int:
        """Cheap relative cost estimate: ops scale with threads x
        transactions."""
        w = spec.workload
        return max(1, w.threads * w.transactions)

    def _plan_batches(self, cells, pending) -> List[List[int]]:
        """Chunk pending cell indices into per-task batches.

        Auto mode packs consecutive cells until a batch carries about
        ``total_cost / (workers * BATCHES_PER_WORKER)`` — big cells get
        their own task, litmus-sized cells share one — so every worker
        still sees several tasks for load balancing.
        """
        if self.batch is not None:
            size = max(1, self.batch)
            return [
                list(pending[i : i + size])
                for i in range(0, len(pending), size)
            ]
        costs = [self._cell_cost(cells[index]) for index in pending]
        workers = max(1, min(self.jobs, len(pending)))
        target = max(1, sum(costs) // (workers * BATCHES_PER_WORKER))
        batches: List[List[int]] = []
        current: List[int] = []
        current_cost = 0
        for index, cost in zip(pending, costs):
            current.append(index)
            current_cost += cost
            if current_cost >= target or len(current) >= MAX_BATCH:
                batches.append(current)
                current = []
                current_cost = 0
        if current:
            batches.append(current)
        return batches

    # ------------------------------------------------------------------
    def _batch_allowance(self, cost: int, count: int) -> Optional[float]:
        """Wall-clock allowance for one pool task, or ``None`` when the
        watchdog has nothing to compare against yet (auto mode before
        the first completion calibrates it)."""
        if self.cell_timeout == "auto":
            if self._auto_rate is None:
                return None
            return max(
                AUTO_TIMEOUT_MIN,
                AUTO_TIMEOUT_FACTOR * self._auto_rate * cost,
            )
        return float(self.cell_timeout) * count

    def _run_attempt(self, cells, unfinished, attempt, finish, defer) -> None:
        """One pool dispatch round over ``unfinished`` cell indices.

        Completed cells flow to ``finish``; cells whose task timed out
        or whose infrastructure failed flow to ``defer`` (the caller's
        retry loop decides their fate).  Exactly one of the two is
        called per index, every round.
        """
        batches = self._plan_batches(cells, unfinished)
        pool = self._get_pool()
        broken = False
        watchdog = self.cell_timeout is not None
        futures: Dict[Any, List[int]] = {}
        meta: Dict[Any, Dict[str, Any]] = {}
        for batch in batches:
            try:
                future = pool.submit(
                    _worker_batch,
                    [(index, cells[index], attempt) for index in batch],
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException:
                # The pool itself is unusable (a worker died and broke
                # it mid-campaign): infrastructure, hence retryable.
                broken = True
                reason = traceback.format_exc()
                for index in batch:
                    defer(index, "infra", reason)
                continue
            futures[future] = batch
            meta[future] = {
                "started": None,
                "cost": sum(self._cell_cost(cells[i]) for i in batch),
                "count": len(batch),
            }
        remaining = set(futures)
        timed_out = set()
        while remaining:
            tick = 0.1 if watchdog else None
            done, _ = wait(remaining, timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in done:
                remaining.discard(future)
                batch = futures[future]
                task = meta[future]
                if future in timed_out:
                    # Already deferred as timeout when its worker was
                    # killed; its BrokenProcessPool echo is expected.
                    continue
                try:
                    results = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except CancelledError:
                    broken = True
                    for index in batch:
                        defer(
                            index,
                            "infra",
                            "task cancelled while the pool was torn down",
                        )
                except BrokenExecutor:
                    broken = True
                    reason = traceback.format_exc()
                    for index in batch:
                        defer(index, "infra", reason)
                except BaseException:
                    # Anything else a pool task can raise (an unpickl-
                    # able payload, a chaos-injected transient) is an
                    # infrastructure event too: the cell never produced
                    # a deterministic outcome.
                    reason = traceback.format_exc()
                    for index in batch:
                        defer(index, "infra", reason)
                else:
                    if task["started"] is not None:
                        rate = (now - task["started"]) / max(1, task["cost"])
                        if rate > (self._auto_rate or 0.0):
                            self._auto_rate = rate
                    for index, outcome in results:
                        finish(index, outcome, attempt)
            if watchdog and remaining:
                hung = []
                for future in remaining:
                    task = meta[future]
                    if task["started"] is None:
                        if future.running():
                            task["started"] = now
                        continue
                    allowance = self._batch_allowance(
                        task["cost"], task["count"]
                    )
                    if (
                        allowance is not None
                        and now - task["started"] > allowance
                    ):
                        hung.append((future, allowance))
                if hung:
                    broken = True
                    for future, allowance in hung:
                        timed_out.add(future)
                        for index in futures[future]:
                            defer(
                                index,
                                "timeout",
                                f"cell exceeded its {allowance:.1f}s "
                                "wall-clock allowance; worker killed",
                            )
                    # A hung task cannot be cancelled, only killed.
                    # Killing the workers breaks every other in-flight
                    # future; they resolve on the next loop passes and
                    # are deferred as ``infra`` (retryable) above.
                    self._kill_pool_workers()
        if broken:
            # Never reuse a pool that lost a worker: the next attempt
            # (or the next run()) lazily spawns a fresh one.
            self.close()

    # ------------------------------------------------------------------
    def _report(
        self,
        done: int,
        total: int,
        hits: int,
        started: float,
        done_live: int,
        total_live: int,
        final: bool = False,
    ) -> None:
        if not self.progress:
            return
        now = time.monotonic()
        if not final and now - getattr(self, "_last_report", 0.0) < 0.5:
            return
        if final and getattr(self, "_last_done", None) == (started, done):
            return
        self._last_report = now
        self._last_done = (started, done)
        elapsed = now - started
        if done_live and total_live > done_live:
            eta = elapsed / done_live * (total_live - done_live)
            eta_text = f" | eta {eta:5.1f}s"
        else:
            eta_text = ""
        failures = self.stats.failures
        fail_text = f" | {failures} FAILED" if failures else ""
        print(
            f"[executor] {done}/{total} cells | {hits} cached | "
            f"{self.jobs} jobs | {elapsed:5.1f}s{eta_text}{fail_text}",
            file=sys.stderr,
            flush=True,
        )


def run_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    fresh: bool = False,
    progress: bool = False,
) -> List[CellOutcome]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(jobs=jobs, cache=cache, fresh=fresh, progress=progress).run(cells)


def aggregate_outcome_metrics(outcomes: Sequence[CellOutcome]):
    """Merge the obs metrics of every successful outcome in a campaign.

    Returns one :class:`~repro.obs.MetricsRegistry` (histograms merged
    key-wise, phase cycles summed) or ``None`` when no outcome carried
    metrics — cells run without ``obs`` contribute nothing.
    """
    from repro.obs import aggregate_metrics

    return aggregate_metrics(
        getattr(o.result, "metrics", None) for o in outcomes if o.ok
    )


def raise_on_failures(outcomes: Sequence[CellOutcome]) -> None:
    """Raise :class:`ExecutionError` if any cell failed.

    The message names every failed cell and includes the first few
    tracebacks verbatim, so a campaign failure is actionable without
    rerunning serially.
    """
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    lines = [f"{len(failed)} of {len(outcomes)} cells failed:"]
    for outcome in failed:
        spec = outcome.spec
        lines.append(
            f"  - {spec.workload.name}/{spec.scheme} @ {spec.cores} core(s)"
            f" [{outcome.kind}]"
        )
    for outcome in failed[:3]:
        lines.append("")
        lines.append(outcome.error.rstrip())
    raise ExecutionError("\n".join(lines))


# ----------------------------------------------------------------------
# Cell-spec serialization and one-line repro commands
# ----------------------------------------------------------------------
def cell_spec_to_json(spec: CellSpec) -> str:
    """Serialize one cell to a compact JSON string that
    :func:`cell_spec_from_json` reconstructs exactly.

    Only cells with the default (Table II) configuration are
    serializable — the crash harnesses only ever emit those, and it
    keeps the repro command a single self-contained line.
    """
    if spec.config is not None:
        raise ConfigError(
            "only default-config cells serialize to a repro command"
        )
    payload = {
        "workload": {
            "name": spec.workload.name,
            "threads": spec.workload.threads,
            "transactions": spec.workload.transactions,
            "kwargs": {k: v for k, v in spec.workload.kwargs},
        },
        "scheme": spec.scheme,
        "cores": spec.cores,
        "crash_plan": asdict(spec.crash_plan) if spec.crash_plan else None,
        "fault_plan": (
            spec.fault_plan.to_json_dict() if spec.fault_plan else None
        ),
        "verify": spec.verify,
        "obs": spec.obs.to_json_dict() if spec.obs is not None else None,
    }
    # Non-default fields are emitted only when set, keeping historical
    # replay commands parseable and byte-stable.
    if spec.engine != "exact":
        payload["engine"] = spec.engine
    if spec.capture_image:
        payload["capture_image"] = True
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cell_spec_from_json(text: str) -> CellSpec:
    """Rebuild the cell a repro command names."""
    data = json.loads(text)
    if data.get("repeats", 1) != 1:
        raise ConfigError(
            "cell field 'repeats' is retired; only the legacy value 1 "
            f"is accepted, got {data['repeats']!r}"
        )
    w = data["workload"]
    crash = data.get("crash_plan")
    fault = data.get("fault_plan")
    return CellSpec(
        workload=WorkloadSpec.make(
            w["name"], w["threads"], w["transactions"], **w.get("kwargs", {})
        ),
        scheme=data["scheme"],
        cores=data["cores"],
        crash_plan=(
            CrashPlan(
                at_op=crash.get("at_op"),
                at_commit_of=(
                    tuple(crash["at_commit_of"])
                    if crash.get("at_commit_of") is not None
                    else None
                ),
            )
            if crash
            else None
        ),
        fault_plan=FaultPlan.from_json_dict(fault) if fault else None,
        verify=data.get("verify", False),
        obs=ObsConfig.from_json_dict(data.get("obs")),
        engine=data.get("engine", "exact"),
        capture_image=data.get("capture_image", False),
    )


def repro_command(spec: CellSpec) -> str:
    """The copy-pasteable command replaying one cell in isolation.

    Printed whenever a randomized crashtest/faultsweep cell fails, so
    the failure is debuggable without re-running the whole campaign:
    the command re-executes exactly that (workload, scheme, crash
    point, fault plan) with ``--jobs 1`` and prints the verdict.
    """
    encoded = cell_spec_to_json(spec).replace("'", "'\\''")
    return (
        "PYTHONPATH=src python -m repro.harness replay "
        f"--jobs 1 --spec '{encoded}'"
    )
