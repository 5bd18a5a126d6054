"""The crash-verification presets build exactly the pinned cell sets.

``tests/data/golden/crash_campaign_cells.json`` holds, for each call
below, the number of cells a campaign hands its executor and the
sha256 of their sorted ``spec_key``s (dispatch order is free: the
ledger's digests do not depend on it).  The executor is a stub that records the cells and stops the campaign, so
nothing is simulated: a change that moves, adds or drops one cell of
litmus, crashtest or faultsweep (an obs flag, a fault seed, a crash
point) fails here without a ledger run.

Regenerate (only for a deliberate change to a campaign's cells)::

    PYTHONPATH=src python tests/integration/test_crash_campaign_cells.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Callable, Dict, List

import pytest

from repro.harness import cli, crashtest, faultsweep, litmus
from repro.harness.executor import CampaignStats, spec_key

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "golden",
    "crash_campaign_cells.json",
)


class _Captured(Exception):
    """Raised by the stub executor once it holds a campaign's cells."""

    def __init__(self, cells):
        super().__init__(len(cells))
        self.cells = list(cells)


class _RecordingExecutor:
    """Stands in for :class:`Executor`: records, never runs."""

    def __init__(self, *args, **kwargs) -> None:
        self.jobs = kwargs.get("jobs")
        self.stats = CampaignStats()

    def run(self, cells):
        raise _Captured(cells)


def _capture(call: Callable[[], object]) -> Dict[str, object]:
    try:
        call()
    except _Captured as captured:
        keys = [spec_key(cell) for cell in captured.cells]
    else:  # pragma: no cover - a campaign that builds no cells
        keys = []
    return {
        "count": len(keys),
        "sha256": hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest(),
    }


def _via_cli(argv: List[str]) -> Callable[[], object]:
    """One CLI invocation with the stub in place of the executor."""

    def call():
        original = cli.Executor
        cli.Executor = _RecordingExecutor
        try:
            cli.main(argv + ["--no-cache", "--jobs", "1"])
        finally:
            cli.Executor = original

    return call


def _stub() -> _RecordingExecutor:
    return _RecordingExecutor()


#: The performance ledger's three ``verify`` calls, then each CLI
#: default (and one non-default draw per random preset).
CAMPAIGNS: Dict[str, Callable[[], object]] = {
    "ledger:litmus": lambda: litmus.run(
        smoke=True, max_patterns=9, executor=_stub()
    ),
    "ledger:crashtest": lambda: crashtest.run(
        seed=1, points_per_pair=4, executor=_stub()
    ),
    "ledger:faultsweep": lambda: faultsweep.run(
        smoke=True, seed=1, executor=_stub()
    ),
    "cli:crashtest": _via_cli(["crashtest"]),
    "cli:crashtest --crash-points 3 --seed 5": _via_cli(
        ["crashtest", "--crash-points", "3", "--seed", "5"]
    ),
    "cli:faultsweep": _via_cli(["faultsweep"]),
    "cli:faultsweep --smoke": _via_cli(["faultsweep", "--smoke"]),
    "cli:faultsweep --smoke --seed 3": _via_cli(
        ["faultsweep", "--smoke", "--seed", "3"]
    ),
    "cli:litmus": _via_cli(["litmus"]),
    "cli:litmus --smoke": _via_cli(["litmus", "--smoke"]),
}


def _load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_campaign():
    assert sorted(_load_golden()) == sorted(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_builds_the_pinned_cells(name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert _capture(CAMPAIGNS[name]) == _load_golden()[name]


def test_litmus_smoke_is_1807_cells():
    assert _load_golden()["cli:litmus --smoke"]["count"] == 1807


if __name__ == "__main__":
    payload = {name: _capture(call) for name, call in sorted(CAMPAIGNS.items())}
    with open(GOLDEN, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    json.dump(
        {name: entry["count"] for name, entry in payload.items()},
        sys.stdout,
        indent=2,
    )
    print()
