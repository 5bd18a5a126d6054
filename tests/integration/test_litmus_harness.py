"""Tests for the litmus preset (shared campaign checks:
``test_verify_campaign.py``)."""

import json

from repro.designs.scheme import SchemeRegistry
from repro.harness import litmus, replay
from repro.harness.executor import cell_spec_from_json, cell_spec_to_json
from repro.litmus.oracle import LitmusVerdict
from repro.litmus.patterns import decode_pattern


class TestLitmusCampaign:
    def test_smoke_subset_passes_for_all_designs(self, tmp_path):
        out = tmp_path / "litmus.json"
        result = litmus.run(smoke=True, max_patterns=3, output=str(out))
        assert result.passed
        assert result.sources == 3
        assert result.cells == sum(
            len(SchemeRegistry.names()) * c
            for c in (5, 6, 7)  # total_ops + 1 of the first three chains
        )
        assert not result.disagreements
        for scheme, tally in result.per_scheme.items():
            assert tally.violations == 0, scheme
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["cells"] == result.cells
        assert payload["minimized_specs"] == []

    def test_every_crash_point_enumerated_inclusive(self):
        result = litmus.run(smoke=True, max_patterns=1, schemes=("silo",))
        pattern = decode_pattern("chain/s8.s9")
        # at_op 0 .. total_ops inclusive: both boundaries are cells.
        assert result.cells == pattern.total_ops + 1

    def test_litmus_cell_spec_replays(self):
        pattern = decode_pattern("multitx/s8;s9")
        spec = litmus.litmus_cell(pattern, "silo", 3)
        text = cell_spec_to_json(spec)
        assert cell_spec_from_json(text) == spec
        replayed = replay.run(text)
        assert replayed.passed
        assert "verdict: PASS" in replayed.format_report()


class TestShrinkingPipeline:
    def test_injected_bug_is_found_minimized_and_replayable(self, monkeypatch):
        """Wire a fake bug through the whole campaign: a verdict that
        condemns any cell whose pattern stores slot 9, at every crash
        point.  The campaign must report the violations, shrink the
        first to the single-op pattern, and emit a replayable spec."""
        real_judge = litmus.judge_cell

        def fake_judge(pattern, outcome):
            if any(
                op == ("s", 9)
                for thread in pattern.body
                for tx in thread
                for op in tx
            ):
                return LitmusVerdict("atomicity", "injected for testing")
            return real_judge(pattern, outcome)

        monkeypatch.setattr(litmus, "judge_cell", fake_judge)
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("silo",), output=None
        )
        assert not result.passed
        assert result.violations
        assert all(v["kind"] == "atomicity" for v in result.violations)
        # chain/s8.s9 shrinks to the lone slot-9 store at crash point 0.
        assert len(result.minimized) == 1
        record = result.minimized[0]
        assert record["workload"] == "chain/s9"
        assert record["point"] == "op 0"
        assert "replay" in record["replay"] and "--spec" in record["replay"]
        spec = cell_spec_from_json(record["spec"])
        assert spec.workload.name == "litmus"
        # Replay judges with the campaign's oracle, so it still sees
        # the injected bug...
        assert not replay.run(record["spec"]).passed
        # ...and the minimized spec replays cleanly under the *real*
        # oracle, proving the emitted one-liner runs.
        monkeypatch.undo()
        assert replay.run(record["spec"]).passed

    def test_report_mentions_minimized_cells(self, monkeypatch):
        monkeypatch.setattr(
            litmus,
            "judge_cell",
            lambda pattern, outcome: LitmusVerdict("durability", "injected"),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("base",), shrink=True
        )
        report = result.format_report()
        assert "FAIL" in report
        assert "minimized cells" in report
        assert "replay:" in report

    def test_shrink_false_skips_minimization(self, monkeypatch):
        monkeypatch.setattr(
            litmus,
            "judge_cell",
            lambda pattern, outcome: LitmusVerdict("durability", "injected"),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("base",), shrink=False
        )
        assert not result.passed
        assert result.violations
        assert result.minimized == []


class TestOracleCrossCheck:
    def test_disagreement_fails_the_campaign(self, monkeypatch):
        """A declarative verdict of 'ok' on a cell the exact oracle
        condemns (or vice versa) is a checker bug and must fail the
        run even with zero violations."""
        monkeypatch.setattr(
            litmus,
            "check_litmus",
            lambda trace, committed, image: LitmusVerdict(
                "durability", "injected disagreement"
            ),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("silo",), shrink=False
        )
        assert result.disagreements
        assert not result.passed
