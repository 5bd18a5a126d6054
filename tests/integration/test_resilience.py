"""Integration tests for the executor's resilience layer: outcome
kinds, the watchdog, bounded retries, settled outcomes in the result
store, interrupt draining and resume."""

import json
import os
import shutil

import pytest

from repro.harness.chaos import ChaosPlan, cell_digest
from repro.harness.executor import (
    CampaignInterrupted,
    CellSpec,
    Executor,
    WorkloadSpec,
    spec_key,
)
from repro.harness.experiments import load_all
from repro.harness.experiments.engine import (
    PartialCampaignResult,
    lower,
    run_campaign,
)
from repro.harness.resultcache import ResultCache
from repro.harness.traceartifacts import TraceArtifactStore


def small_cells(n=4):
    """Distinct, fast, deterministic cells (distinct content addresses)."""
    schemes = ["base", "silo", "fwb", "swlog", "wrap", "redu"]
    return [
        CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=5),
            scheme=schemes[i % len(schemes)],
            cores=2,
        )
        for i in range(n)
    ]


class TestOutcomeKinds:
    def test_cell_error_is_deterministic_and_never_retried(self):
        bad = CellSpec(
            workload=WorkloadSpec.make("hash", threads=1, transactions=2),
            scheme="silo",
            cores=1,
            engine="bogus",
        )
        good = small_cells(1)[0]
        with Executor(jobs=2, batch=1, retries=2, retry_backoff=0.01) as ex:
            outcomes = ex.run([bad, good])
        assert outcomes[0].kind == "error"
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert outcomes[1].ok and outcomes[1].kind == "ok"
        assert ex.stats.retries == 0
        assert ex.stats.errors == 1 and ex.stats.failures == 1

    def test_worker_kill_is_infra_and_converges_under_retry(self):
        cells = small_cells(4)
        target = cell_digest(spec_key(cells[0]))[:16]
        plan = ChaosPlan(targets=((target, "kill"),))
        with Executor(
            jobs=2, batch=1, retries=2, retry_backoff=0.01, chaos=plan
        ) as ex:
            outcomes = ex.run(cells)
        assert all(o.ok for o in outcomes)
        assert ex.stats.infra >= 1
        assert ex.stats.retries >= 1
        assert ex.stats.failures == 0
        killed = outcomes[0]
        assert killed.attempts >= 2
        assert killed.retry_reasons
        assert "infra" in killed.retry_reasons[0]

    def test_infra_without_retry_budget_is_final(self):
        cells = small_cells(2)
        target = cell_digest(spec_key(cells[0]))[:16]
        plan = ChaosPlan(targets=((target, "raise"),))
        with Executor(jobs=2, batch=1, retries=0, chaos=plan) as ex:
            outcomes = ex.run(cells)
        assert outcomes[0].kind == "infra" and not outcomes[0].ok
        assert "ChaosError" in outcomes[0].error
        assert ex.stats.infra_final == 1


class TestWatchdog:
    def test_hung_worker_is_timed_out_and_retried(self):
        cells = small_cells(3)
        target = cell_digest(spec_key(cells[0]))[:16]
        plan = ChaosPlan(hang_seconds=30.0, targets=((target, "hang"),))
        with Executor(
            jobs=2,
            batch=1,
            retries=1,
            retry_backoff=0.05,
            cell_timeout=1.5,
            chaos=plan,
        ) as ex:
            outcomes = ex.run(cells)
        assert all(o.ok for o in outcomes)
        assert ex.stats.timeouts >= 1
        hung = outcomes[0]
        assert hung.attempts == 2
        assert "timeout" in hung.retry_reasons[0]

    def test_timeout_without_retry_budget_is_final(self):
        cells = small_cells(3)
        target = cell_digest(spec_key(cells[0]))[:16]
        plan = ChaosPlan(hang_seconds=30.0, targets=((target, "hang"),))
        with Executor(
            jobs=2, batch=1, retries=0, cell_timeout=1.5, chaos=plan
        ) as ex:
            outcomes = ex.run(cells)
        assert outcomes[0].kind == "timeout" and not outcomes[0].ok
        assert "wall-clock allowance" in outcomes[0].error
        assert ex.stats.timeouts_final == 1
        # The survivors of the same round must not be blanket-failed.
        assert all(o.ok for o in outcomes[1:])

    def test_serial_path_ignores_cell_timeout(self):
        with Executor(jobs=1, cell_timeout=0.0001) as ex:
            outcomes = ex.run(small_cells(2))
        assert all(o.ok for o in outcomes)


class TestTeardown:
    def test_no_worker_outlives_the_with_block(self):
        cells = small_cells(4)
        with Executor(jobs=2, batch=1) as ex:
            outcomes = ex.run(cells)
            assert all(o.ok for o in outcomes)
            pids = [p.pid for p in ex._pool._processes.values()]
            assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_is_idempotent(self):
        ex = Executor(jobs=2)
        ex.run(small_cells(2))
        ex.close()
        ex.close()
        assert ex._pool is None


def bogus_cell():
    """A cell whose own code raises: a deterministic ``error``."""
    return CellSpec(
        workload=WorkloadSpec.make("hash", threads=1, transactions=2),
        scheme="silo",
        cores=1,
        engine="bogus",
    )


class TestStoredOutcomes:
    def test_resume_serves_settled_cells(self, tmp_path):
        cells = small_cells(3)
        with Executor(
            jobs=1, cache=ResultCache(str(tmp_path), fingerprint="fp")
        ) as ex:
            first = ex.run(cells)
        assert ex.stats.executed == 3
        with Executor(
            jobs=1,
            cache=ResultCache(str(tmp_path), fingerprint="fp"),
            resume=True,
        ) as ex2:
            second = ex2.run(cells)
        assert ex2.stats.executed == 0
        assert ex2.stats.cache_hits == 3
        assert all(o.cached for o in second)
        assert [o.result.committed for o in second] == [
            o.result.committed for o in first
        ]

    def test_error_outcomes_are_served_only_to_a_resumed_run(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="fp")
        with Executor(jobs=1, cache=cache) as ex:
            ex.run([bogus_cell()])
        assert cache.stats()["entries"] == 1
        # A plain run re-executes the stored error...
        with Executor(jobs=1, cache=cache) as plain:
            outcomes = plain.run([bogus_cell()])
        assert plain.stats.executed == 1 and plain.stats.cache_hits == 0
        assert not outcomes[0].cached
        # ...a resumed one serves it.
        with Executor(jobs=1, cache=cache, resume=True) as ex2:
            outcomes = ex2.run([bogus_cell()])
        assert ex2.stats.executed == 0 and ex2.stats.cache_hits == 1
        assert not outcomes[0].ok and outcomes[0].kind == "error"
        assert ex2.stats.failures == 1

    @pytest.mark.parametrize(
        "flags", [{}, {"fresh": True}, {"resume": True}], ids=str
    )
    def test_each_settled_cell_is_written_once_per_run(self, tmp_path, flags):
        cells = small_cells(3) + [bogus_cell()]
        cache = ResultCache(str(tmp_path), fingerprint="fp")
        writes = []
        put = cache.put
        cache.put = lambda key, value: (writes.append(key), put(key, value))
        with Executor(
            jobs=2,
            batch=1,
            cache=cache,
            trace_store=TraceArtifactStore(str(tmp_path)),
            **flags,
        ) as ex:
            ex.run(cells)
        assert sorted(writes) == sorted(spec_key(c) for c in cells)
        # One file per settled cell plus one per distinct recipe: no
        # second copy anywhere under the cache root.
        recipes = {c.workload for c in cells}
        assert len(list(tmp_path.rglob("*.pkl"))) == len(cells) + len(recipes)

    def test_interrupt_drains_with_settled_cells_stored(self, tmp_path):
        cells = small_cells(6)
        cache = ResultCache(str(tmp_path), fingerprint="fp")
        plan = ChaosPlan(interrupt_after=2)
        ex = Executor(jobs=2, batch=1, cache=cache, chaos=plan)
        with pytest.raises(CampaignInterrupted) as info:
            ex.run(cells)
        exc = info.value
        assert len(exc.outcomes) == 2
        assert exc.total == 6
        assert cache.stats()["entries"] == 2
        assert "--resume" in str(exc)
        # The drain killed and reaped the pool.
        assert ex._pool is None


class TestContentAddress:
    def test_resilience_options_never_join_the_cell_address(self, tmp_path):
        cell = small_cells(1)[0]
        key = spec_key(cell)
        for token in ("retries", "retry", "timeout", "journal", "resume"):
            assert token not in key
        cache = ResultCache(str(tmp_path), fingerprint="fp")
        with Executor(
            jobs=1, cache=cache, retries=3, retry_backoff=0.2,
            cell_timeout=60.0,
        ) as ex:
            ex.run([cell])
        plain_cache = ResultCache(str(tmp_path), fingerprint="fp")
        with Executor(jobs=1, cache=plain_cache) as ex2:
            outcomes = ex2.run([cell])
        assert outcomes[0].cached
        assert ex2.stats.cache_hits == 1


class TestResume:
    def test_resumed_campaign_is_byte_identical(self, tmp_path):
        """An interrupted campaign, resumed, must (a) re-run only the
        genuinely-unfinished cells and (b) produce exactly the result
        and manifest a never-interrupted run produces."""
        registry = load_all()
        spec = registry.get("fig13")
        total = len(
            [c for c in lower(spec, spec.merged_params(smoke=True))[2] if c]
        )
        dir_a = tmp_path / "a"

        # Interrupted run in cache dir A (chaos raises SIGINT after the
        # first completion).
        ex = Executor(
            jobs=2,
            batch=1,
            cache=ResultCache(str(dir_a)),
            chaos=ChaosPlan(interrupt_after=1),
        )
        with pytest.raises(CampaignInterrupted) as info:
            run_campaign(spec, executor=ex, smoke=True)
        ex.close()
        completed = len(info.value.outcomes)
        assert 0 < completed < total

        # Freeze the interrupted state: B is a byte copy of A.
        dir_b = tmp_path / "b"
        shutil.copytree(dir_a, dir_b)

        # Resume in A.
        ex_a = Executor(
            jobs=2,
            batch=1,
            cache=ResultCache(str(dir_a)),
            resume=True,
        )
        result_a, campaign_a = run_campaign(spec, executor=ex_a, smoke=True)
        ex_a.close()
        # Only the unfinished cells ran; the rest were store-served.
        assert ex_a.stats.executed == total - completed
        assert ex_a.stats.cache_hits == completed

        # Completion in B without --resume (the CLI's plain path).
        ex_b = Executor(jobs=2, batch=1, cache=ResultCache(str(dir_b)))
        result_b, campaign_b = run_campaign(spec, executor=ex_b, smoke=True)
        ex_b.close()

        dumps = lambda m: json.dumps(m, indent=2, sort_keys=True)
        assert dumps(campaign_a.manifest()) == dumps(campaign_b.manifest())
        assert dumps(result_a.to_json_payload()) == dumps(
            result_b.to_json_payload()
        )
        assert result_a.format_report() == result_b.format_report()


class TestPartialCampaign:
    def test_partial_mode_renders_holes_instead_of_raising(self):
        registry = load_all()
        spec = registry.get("fig13")
        params = spec.merged_params(smoke=True)
        cells = [c for c in lower(spec, params)[2] if c is not None]
        target = cell_digest(spec_key(cells[0]))[:16]
        plan = ChaosPlan(targets=((target, "raise"),))
        with Executor(jobs=2, batch=1, retries=0, chaos=plan) as ex:
            result, campaign = run_campaign(
                spec, executor=ex, smoke=True, partial=True
            )
        assert isinstance(result, PartialCampaignResult)
        assert result.passed is False
        assert len(result.holes) == 1
        assert campaign.holes()[0][1].kind == "infra"
        report = result.format_report()
        assert "PARTIAL RESULT" in report
        assert "missing [infra]" in report
        payload = result.to_json_dict()
        assert payload["partial"] is True
        assert payload["holes"][0]["kind"] == "infra"
        # The degraded manifest names the hole's kind explicitly.
        kinds = [
            c.get("kind")
            for c in campaign.manifest()["cells"]
            if not c.get("ok", True)
        ]
        assert kinds == ["infra"]

    def test_partial_mode_without_holes_is_the_plain_result(self):
        registry = load_all()
        spec = registry.get("fig13")
        with Executor(jobs=1) as ex:
            result, _ = run_campaign(
                spec, executor=ex, smoke=True, partial=True
            )
        assert not isinstance(result, PartialCampaignResult)
