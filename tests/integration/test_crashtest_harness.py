"""Tests for the crashtest preset (shared campaign checks:
``test_verify_campaign.py``)."""

from repro.harness import crashtest
from repro.harness.verify import RANDOM_DESIGNS


class TestCrashTest:
    def test_sweep_passes_for_all_designs(self):
        result = crashtest.run(
            workloads=("hash",),
            points_per_pair=6,
            threads=2,
            transactions=4,
            seed=1,
        )
        assert result.passed
        assert result.cells == 6 * len(RANDOM_DESIGNS)
        assert all(tally.violations == 0 for tally in result.per_scheme.values())

    def test_includes_commit_strikes(self):
        """With enough points, some plans target commits directly."""
        result = crashtest.run(
            workloads=("hash",),
            schemes=("silo",),
            points_per_pair=30,
            transactions=4,
            seed=3,
        )
        assert result.passed
