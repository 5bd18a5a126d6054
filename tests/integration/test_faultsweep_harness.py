"""Tests for the faultsweep preset (shared campaign checks:
``test_verify_campaign.py``)."""

import json

from repro.harness import faultsweep, replay
from repro.harness.verify import RANDOM_DESIGNS


class TestFaultSweep:
    def test_smoke_campaign_passes_for_all_designs(self, tmp_path):
        out = tmp_path / "sweep.json"
        result = faultsweep.run(seed=1, smoke=True, output=str(out))
        assert result.passed
        assert result.silent == 0
        assert result.violations == []
        assert result.cells == 6 * len(RANDOM_DESIGNS)
        # Non-clean presets ran: damage was actually injected, and every
        # injected fault was reported — the exact-accounting invariant.
        assert sum(result.injected.values()) > 0
        assert result.injected == result.reported
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["silent"] == 0
        assert payload["violations"] == []


class TestReplay:
    def test_replay_reproduces_a_faulted_cell(self):
        from repro.faults.plan import FaultPlan
        from repro.harness.executor import (
            CellSpec,
            WorkloadSpec,
            cell_spec_to_json,
        )
        from repro.sim.crash import CrashPlan

        spec = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=4),
            scheme="silo",
            cores=2,
            crash_plan=CrashPlan(at_op=25),
            fault_plan=FaultPlan(seed=9, tear_prob=0.7, log_bitflips=1),
            verify=True,
        )
        replayed = replay.run(cell_spec_to_json(spec))
        assert replayed.passed
        report = replayed.format_report()
        assert "verdict: PASS" in report
        assert "injected" in report
