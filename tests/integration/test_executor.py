"""The parallel execution layer: equivalence, isolation, caching.

The load-bearing guarantee is that a cell's result is a pure function
of its spec — so ``jobs=4`` must reproduce ``jobs=1`` bit-for-bit, a
cache hit must reproduce a live run bit-for-bit, and one failing cell
must not take the campaign down with it.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ExecutionError
from repro.faults.plan import FaultPlan
from repro.harness.executor import (
    CellSpec,
    Executor,
    TraceStats,
    WorkloadSpec,
    cell_spec_from_json,
    cell_spec_to_json,
    execute_cell,
    raise_on_failures,
    run_cells,
    spec_key,
)
from repro.harness import fig12
from repro.harness.experiments import run_campaign
from repro.harness.resultcache import ResultCache
from repro.sim.crash import CrashPlan


def small_cells():
    """A tiny but heterogeneous campaign: two workloads x two schemes."""
    return [
        CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=10),
            scheme=scheme,
            cores=2,
        )
        for scheme in ("base", "silo")
    ] + [
        CellSpec(
            workload=WorkloadSpec.make("queue", threads=2, transactions=10),
            scheme=scheme,
            cores=2,
        )
        for scheme in ("base", "silo")
    ]


class TestEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        cells = small_cells()
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        assert len(serial) == len(parallel) == len(cells)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.result.end_cycle == p.result.end_cycle
            assert s.result.committed == p.result.committed
            assert s.result.stats.as_dict() == p.result.stats.as_dict()

    def test_campaign_identical_under_parallel_executor(self):
        kwargs = dict(
            core_counts=(2,),
            schemes=("base", "silo"),
            workloads=("hash",),
            transactions=10,
        )
        serial, _ = run_campaign(fig12.SPEC, executor=Executor(jobs=1), **kwargs)
        with Executor(jobs=3) as executor:
            parallel, _ = run_campaign(fig12.SPEC, executor=executor, **kwargs)
        for scheme in ("base", "silo"):
            a = serial.grids[2].results["hash"][scheme]
            b = parallel.grids[2].results["hash"][scheme]
            assert a.end_cycle == b.end_cycle
            assert a.stats.as_dict() == b.stats.as_dict()

    def test_outcomes_preserve_input_order(self):
        cells = small_cells()
        outcomes = run_cells(cells, jobs=4)
        assert [o.spec for o in outcomes] == cells


class TestCellKinds:
    def test_trace_stats_cell(self):
        spec = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=10),
            scheme=None,
            cores=2,
        )
        outcome = execute_cell(spec)
        assert isinstance(outcome.result, TraceStats)
        assert outcome.result.mean_write_size_bytes > 0
        assert outcome.result.total_transactions == 20

    def test_verify_cell_carries_oracle_verdict(self):
        spec = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=8),
            scheme="silo",
            cores=2,
            crash_plan=CrashPlan(at_op=30),
            verify=True,
        )
        outcome = execute_cell(spec)
        assert outcome.ok
        assert outcome.result.crashed
        assert outcome.mismatches == []

    def test_repeats_record_every_sample(self):
        spec = CellSpec(
            workload=WorkloadSpec.make("hash", threads=1, transactions=5),
            scheme="silo",
            cores=1,
            repeats=3,
        )
        outcome = execute_cell(spec)
        assert len(outcome.seconds) == 3
        assert all(s > 0 for s in outcome.seconds)


class TestFailureIsolation:
    def failing_cell(self):
        # A crash plan past the end of the trace raises SimulationError.
        return CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=8),
            scheme="silo",
            cores=2,
            crash_plan=CrashPlan(at_op=10**9),
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_survives_failing_cell(self, jobs):
        cells = small_cells() + [self.failing_cell()]
        outcomes = run_cells(cells, jobs=jobs)
        assert [o.ok for o in outcomes] == [True] * 4 + [False]
        assert "SimulationError" in outcomes[-1].error
        # The good cells still carry full results.
        assert all(o.result.end_cycle > 0 for o in outcomes[:4])

    def test_raise_on_failures_names_the_cell(self):
        outcomes = run_cells(small_cells() + [self.failing_cell()], jobs=1)
        with pytest.raises(ExecutionError) as excinfo:
            raise_on_failures(outcomes)
        message = str(excinfo.value)
        assert "1 of 5 cells failed" in message
        assert "hash/silo" in message
        assert "SimulationError" in message


class TestCaching:
    def cache(self, tmp_path, fingerprint="fp-a"):
        return ResultCache(str(tmp_path / "cache"), fingerprint=fingerprint)

    def test_second_run_is_served_from_cache(self, tmp_path):
        cells = small_cells()
        cache = self.cache(tmp_path)
        cold = run_cells(cells, jobs=1, cache=cache)
        warm = run_cells(cells, jobs=1, cache=cache)
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert a.result.end_cycle == b.result.end_cycle
            assert a.result.stats.as_dict() == b.result.stats.as_dict()

    def test_cache_hit_identical_under_parallel_miss(self, tmp_path):
        """Cells computed at jobs=4 serve hits to a jobs=1 rerun."""
        cells = small_cells()
        cache = self.cache(tmp_path)
        cold = run_cells(cells, jobs=4, cache=cache)
        warm = run_cells(cells, jobs=1, cache=cache)
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert a.result.end_cycle == b.result.end_cycle

    def test_spec_change_misses(self, tmp_path):
        cache = self.cache(tmp_path)
        base = small_cells()[0]
        run_cells([base], jobs=1, cache=cache)
        changed = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=11),
            scheme=base.scheme,
            cores=base.cores,
        )
        outcome = run_cells([changed], jobs=1, cache=cache)[0]
        assert not outcome.cached

    def test_source_fingerprint_change_misses(self, tmp_path):
        cells = [small_cells()[0]]
        run_cells(cells, jobs=1, cache=self.cache(tmp_path, "fp-a"))
        outcome = run_cells(cells, jobs=1, cache=self.cache(tmp_path, "fp-b"))[0]
        assert not outcome.cached

    def test_config_none_and_table2_share_an_entry(self, tmp_path):
        wspec = WorkloadSpec.make("hash", threads=2, transactions=10)
        implicit = CellSpec(workload=wspec, scheme="silo", cores=2)
        explicit = CellSpec(
            workload=wspec, scheme="silo", cores=2, config=SystemConfig.table2(2)
        )
        assert spec_key(implicit) == spec_key(explicit)
        cache = self.cache(tmp_path)
        run_cells([implicit], jobs=1, cache=cache)
        assert run_cells([explicit], jobs=1, cache=cache)[0].cached

    def test_fresh_recomputes_but_rewrites(self, tmp_path):
        cells = [small_cells()[0]]
        cache = self.cache(tmp_path)
        run_cells(cells, jobs=1, cache=cache)
        fresh = run_cells(cells, jobs=1, cache=cache, fresh=True)[0]
        assert not fresh.cached
        assert run_cells(cells, jobs=1, cache=cache)[0].cached

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = self.cache(tmp_path)
        bad = [TestFailureIsolation().failing_cell()]
        run_cells(bad, jobs=1, cache=cache)
        outcome = run_cells(bad, jobs=1, cache=cache)[0]
        assert not outcome.cached and not outcome.ok

    def test_executor_stats_account_hits(self, tmp_path):
        cache = self.cache(tmp_path)
        executor = Executor(jobs=1, cache=cache)
        executor.run(small_cells())
        executor.run(small_cells())
        assert executor.stats.cells == 8
        assert executor.stats.cache_hits == 4
        assert executor.stats.executed == 4
        assert executor.stats.failures == 0


class TestFaultPlanCells:
    """Fault plans are part of a cell's identity: they must key the
    cache, survive JSON round-trips, and replay exactly."""

    def fault_cell(self, plan):
        return CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=8),
            scheme="silo",
            cores=2,
            crash_plan=CrashPlan(at_op=30),
            fault_plan=plan,
            verify=True,
        )

    def test_fault_plan_in_spec_key(self):
        clean = self.fault_cell(None)
        faulted = self.fault_cell(FaultPlan(seed=1, tear_prob=0.5))
        reseeded = self.fault_cell(FaultPlan(seed=2, tear_prob=0.5))
        keys = {spec_key(clean), spec_key(faulted), spec_key(reseeded)}
        assert len(keys) == 3

    def test_fault_plan_change_misses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp-a")
        a = self.fault_cell(FaultPlan(seed=1, tear_prob=0.5))
        run_cells([a], jobs=1, cache=cache)
        assert run_cells([a], jobs=1, cache=cache)[0].cached
        b = self.fault_cell(FaultPlan(seed=2, tear_prob=0.5))
        assert not run_cells([b], jobs=1, cache=cache)[0].cached

    def test_fault_cell_parallel_matches_serial(self):
        cells = [
            self.fault_cell(FaultPlan(seed=s, tear_prob=0.5, log_bitflips=1))
            for s in range(4)
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.fault_verdict is not None
            assert s.fault_verdict.injected == p.fault_verdict.injected
            assert s.fault_verdict.reported == p.fault_verdict.reported
            assert s.fault_verdict.ok and p.fault_verdict.ok

    def test_spec_json_round_trip(self):
        spec = self.fault_cell(
            FaultPlan(seed=7, tear_prob=0.25, drop_prob=0.25, data_bitflips=2)
        )
        rebuilt = cell_spec_from_json(cell_spec_to_json(spec))
        assert rebuilt == spec
        assert spec_key(rebuilt) == spec_key(spec)

    def test_spec_json_round_trip_at_commit_of(self):
        spec = CellSpec(
            workload=WorkloadSpec.make("btree", threads=2, transactions=8),
            scheme="base",
            cores=2,
            crash_plan=CrashPlan(at_commit_of=(1, 3)),
            verify=True,
        )
        rebuilt = cell_spec_from_json(cell_spec_to_json(spec))
        assert rebuilt == spec
        assert spec_key(rebuilt) == spec_key(spec)


class TestBatching:
    """Cell batching is dispatch packaging only: per-cell results,
    outcome order and failure isolation must be unchanged."""

    def test_fixed_batch_matches_serial_bit_for_bit(self):
        cells = small_cells()
        serial = run_cells(cells, jobs=1)
        batched = Executor(jobs=2, batch=3).run(cells)
        for s, b in zip(serial, batched):
            assert s.ok and b.ok
            assert s.result.end_cycle == b.result.end_cycle
            assert s.result.stats.as_dict() == b.result.stats.as_dict()

    def test_auto_batch_matches_serial_bit_for_bit(self):
        cells = small_cells() * 3
        serial = run_cells(cells, jobs=1)
        batched = Executor(jobs=2, batch=None).run(cells)
        for s, b in zip(serial, batched):
            assert s.ok and b.ok
            assert s.result.end_cycle == b.result.end_cycle

    def test_plan_batches_auto_groups_small_cells(self):
        cells = small_cells() * 8
        executor = Executor(jobs=2)
        batches = executor._plan_batches(cells, list(range(len(cells))))
        # Equal-cost cells at 2 jobs should land in ~8 batches (4 per
        # worker), each carrying several cells, covering every index.
        assert 1 < len(batches) < len(cells)
        flat = [i for batch in batches for i in batch]
        assert flat == list(range(len(cells)))

    def test_plan_batches_fixed_override(self):
        cells = small_cells()
        executor = Executor(jobs=2, batch=1)
        batches = executor._plan_batches(cells, list(range(len(cells))))
        assert batches == [[0], [1], [2], [3]]

    def test_batched_campaign_survives_failing_cell(self):
        # A typo'd scheme now fails at CellSpec construction, so the
        # in-worker failure is a crash plan that can never fire (the
        # engine raises SimulationError instead of completing).
        cells = small_cells()
        bad = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=10),
            scheme="base",
            cores=2,
            crash_plan=CrashPlan(at_op=10**9),
        )
        outcomes = Executor(jobs=2, batch=2).run(cells[:2] + [bad] + cells[2:])
        assert [o.ok for o in outcomes] == [True, True, False, True, True]
        assert "never fired" in outcomes[2].error


class TestTraceArtifactStore:
    """The shared trace-artifact store must be invisible in results
    and visible only in wall-clock."""

    def test_store_backed_run_matches_plain(self, tmp_path):
        from repro.harness.traceartifacts import TraceArtifactStore

        cells = small_cells()
        plain = run_cells(cells, jobs=1)
        store = TraceArtifactStore(str(tmp_path / "cache"))
        backed = Executor(jobs=2, trace_store=store).run(cells)
        for p, b in zip(plain, backed):
            assert p.ok and b.ok
            assert p.result.end_cycle == b.result.end_cycle
            assert p.result.committed == b.result.committed
            assert p.result.stats.as_dict() == b.result.stats.as_dict()
        # The parent prebuilt one artifact per distinct recipe.
        assert store.stats()["entries"] == 2

    def test_columnar_on_loaded_artifact_matches(self, tmp_path):
        from repro.harness.traceartifacts import TraceArtifactStore

        cells = [
            CellSpec(
                workload=WorkloadSpec.make("hash", threads=2, transactions=10),
                scheme="silo",
                cores=2,
                engine=engine,
            )
            for engine in ("exact", "columnar")
        ]
        store = TraceArtifactStore(str(tmp_path / "cache"))
        exact, columnar = Executor(jobs=2, trace_store=store).run(cells)
        assert exact.ok and columnar.ok
        assert exact.result.end_cycle == columnar.result.end_cycle
        assert (
            exact.result.stats.as_dict() == columnar.result.stats.as_dict()
        )
        # The seeded decode keeps the loaded trace fully fused.
        assert columnar.engine_stats["fast_fraction"] == 1.0

    def test_artifact_round_trip_equals_built_trace(self, tmp_path):
        from repro.harness.traceartifacts import TraceArtifactStore

        spec = WorkloadSpec.make("btree", threads=2, transactions=8)
        store = TraceArtifactStore(str(tmp_path / "cache"))
        built = store.build(spec)
        loaded = store.load(spec)
        assert loaded is not None
        assert loaded.name == built.name
        assert loaded.initial_image == built.initial_image
        assert [t.tid for t in loaded.threads] == [t.tid for t in built.threads]
        for lt, bt in zip(loaded.threads, built.threads):
            assert [tx.ops for tx in lt.transactions] == [
                tx.ops for tx in bt.transactions
            ]

    def test_stale_format_reads_as_miss(self, tmp_path):
        import pickle

        from repro.harness.traceartifacts import TraceArtifactStore

        spec = WorkloadSpec.make("queue", threads=1, transactions=4)
        store = TraceArtifactStore(str(tmp_path / "cache"))
        store.build(spec)
        (path,) = (store.root / "objects").rglob("*.pkl")
        with open(path, "wb") as fh:
            pickle.dump({"version": -1}, fh)
        assert store.load(spec) is None

    def test_clear_removes_artifacts(self, tmp_path):
        from repro.harness.traceartifacts import TraceArtifactStore

        store = TraceArtifactStore(str(tmp_path / "cache"))
        store.build(WorkloadSpec.make("hash", threads=1, transactions=4))
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
