"""Integration test: the chaos self-test harness passes end to end."""

import json

from repro.harness.chaos import ChaosPlan, cell_digest, run


class TestChaosPlan:
    def test_targets_fire_on_first_attempt_only(self):
        key = "some-cell-key"
        plan = ChaosPlan(targets=((cell_digest(key)[:12], "kill"),))
        assert plan.action(key, 0) == "kill"
        assert plan.action(key, 1) is None
        assert plan.action("other-cell", 0) is None

    def test_probabilities_are_seeded_and_deterministic(self):
        always = ChaosPlan(seed=3, raise_prob=1.0)
        assert always.action("k", 0) == "raise"
        assert always.action("k", 0) == always.action("k", 0)
        never = ChaosPlan(seed=3)
        assert never.action("k", 0) is None

    def test_kill_takes_precedence_in_the_roll(self):
        plan = ChaosPlan(seed=0, kill_prob=1.0, hang_prob=1.0)
        assert plan.action("k", 0) == "kill"


class TestChaosHarness:
    def test_smoke_run_passes_and_writes_report(self, tmp_path):
        output = tmp_path / "CHAOS.json"
        result = run(smoke=True, jobs=2, output=str(output))
        assert result.passed, result.format_report()
        names = [phase.name for phase in result.phases]
        assert names == [
            "baseline", "kill", "hang", "raise", "corrupt", "resume"
        ]
        payload = json.loads(output.read_text())
        assert payload["passed"] is True
        assert payload["experiment"] == "chaos"
        assert len(payload["phases"]) == 6
        report = result.format_report()
        assert "OVERALL: PASS" in report
