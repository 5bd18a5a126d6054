"""The one crash-verification campaign, checked once per preset.

``crashtest``, ``faultsweep`` and ``litmus`` share the draw, the judge,
the tallies, the report and the JSON schema of
:mod:`repro.harness.verify`; what each preset adds on top is tested in
its own ``test_<preset>_harness.py``.
"""

import json
from types import SimpleNamespace

import pytest

from repro.faults.oracle import FaultVerdict
from repro.harness import crashtest, faultsweep, litmus, replay
from repro.harness.cli import main
from repro.harness.executor import Executor, cell_spec_to_json
from repro.harness.verify import RANDOM_DESIGNS, Tally, judge
from repro.litmus.oracle import LitmusVerdict
from repro.litmus.patterns import decode_pattern

#: Per preset: ``(run, small campaign kwargs, report phrases)``.
PRESETS = {
    "crashtest": (
        crashtest.run,
        dict(workloads=("queue",), points_per_pair=3, transactions=3, seed=2),
        ("PASS", "silo", "atomic durability"),
    ),
    "faultsweep": (
        faultsweep.run,
        dict(
            workloads=("hash",), schemes=("silo",), points_per_pair=6,
            transactions=4, seed=2,
        ),
        ("PASS", "silo", "Fault-injection sweep", "faults injected", "faults reported"),
    ),
    "litmus": (
        litmus.run,
        dict(smoke=True, max_patterns=2, schemes=("base", "silo")),
        ("PASS", "silo", "Persistency-model litmus sweep"),
    ),
}

#: Per preset: ``(campaign kwargs, jobs)`` of the serial/parallel check.
PARALLEL = {
    "crashtest": (PRESETS["crashtest"][1], 2),
    "faultsweep": (dict(seed=3, smoke=True, schemes=("base", "silo")), 4),
    "litmus": (PRESETS["litmus"][1], 2),
}

#: Per preset: the CLI smoke invocation and its report title.
CLI = {
    "crashtest": (["crashtest", "--crash-points", "3"], "atomic durability"),
    "faultsweep": (["faultsweep", "--smoke"], "Fault-injection sweep"),
    "litmus": (["litmus", "--smoke"], "Persistency-model litmus sweep"),
}

#: The one JSON report schema every preset writes.
SCHEMA = {
    "campaign", "passed", "sources", "cells", "silent", "per_scheme",
    "per_family", "violations", "disagreements", "injected", "reported",
    "minimized", "minimized_specs", "metrics", "trace",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_report_lists_verdicts(preset):
    run, kwargs, phrases = PRESETS[preset]
    report = run(**kwargs).format_report()
    for phrase in phrases:
        assert phrase in report, phrase
    assert "FAIL" not in report


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_deterministic_for_seed(preset):
    run, kwargs, _ = PRESETS[preset]
    a, b = run(**kwargs), run(**kwargs)
    assert a.cells == b.cells > 0
    assert a.failures == b.failures == 0
    assert a.injected == b.injected
    assert a.reported == b.reported
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("preset", sorted(PARALLEL))
def test_parallel_matches_serial(preset):
    run = PRESETS[preset][0]
    kwargs, jobs = PARALLEL[preset]
    serial = run(**kwargs)
    with Executor(jobs=jobs) as executor:
        parallel = run(executor=executor, **kwargs)
    assert serial.cells == parallel.cells
    assert serial.injected == parallel.injected
    assert serial.reported == parallel.reported
    assert serial.per_scheme == parallel.per_scheme
    assert serial.violations == parallel.violations
    assert serial.to_json_dict() == parallel.to_json_dict()


@pytest.mark.parametrize("preset", sorted(CLI))
def test_cli_smoke_writes_the_one_report(preset, capsys, tmp_path, monkeypatch):
    argv, title = CLI[preset]
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
    stdout = capsys.readouterr().out
    assert title in stdout
    assert "FAIL" not in stdout
    # --output defaults to the command's name.
    payload = json.loads((tmp_path / f"{preset.upper()}.json").read_text())
    assert set(payload) == SCHEMA
    assert payload["campaign"] == preset
    assert payload["passed"] is True
    assert payload["violations"] == [] and payload["disagreements"] == []
    assert payload["silent"] == 0
    if preset == "litmus":
        assert payload["cells"] >= 500
        assert len(payload["per_scheme"]) == 13


def test_cli_output_flag_names_the_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sub.json"
    argv = ["crashtest", "--crash-points", "1", "--jobs", "1", "--no-cache"]
    assert main(argv + ["--output", str(out)]) == 0
    assert json.loads(out.read_text())["cells"] == 2 * len(RANDOM_DESIGNS)
    assert not (tmp_path / "CRASHTEST.json").exists()


@pytest.mark.parametrize(
    "unattributed, silent, kind, tally",
    [
        ([], [], "ok", Tally(1, 0, 0)),
        ([], ["torn"], "silent", Tally(1, 0, 1)),
        ([(0x40, 1, 2)], [], "violation", Tally(1, 1, 0)),
        ([(0x40, 1, 2)], ["torn"], "violation", Tally(1, 1, 1)),
    ],
)
def test_fault_verdicts_count_once_per_outcome(unattributed, silent, kind, tally):
    """A faulted cell with only silent damage counts as silent, not as a
    violation; one with an unattributed mismatch counts as a violation,
    and also as silent when it has both."""
    fault = FaultVerdict(unattributed=unattributed, silent=silent)
    verdict = judge(SimpleNamespace(fault_verdict=fault))
    assert verdict.kind == kind
    assert Tally().add(verdict) == tally


def test_random_designs_are_the_registry_but_swlog():
    from repro.designs.scheme import SchemeRegistry

    assert len(RANDOM_DESIGNS) == 12
    assert set(RANDOM_DESIGNS) == set(SchemeRegistry.names()) - {"swlog"}


def test_replay_judges_a_pattern_cell_with_both_oracles(monkeypatch):
    """``replay`` applies the campaign's judge: on a litmus cell the
    declarative oracle runs and is cross-checked against the exact one."""
    spec = litmus.litmus_cell(decode_pattern("chain/s8.s9"), "silo", 2)
    assert replay.run(cell_spec_to_json(spec)).passed
    monkeypatch.setattr(
        litmus,
        "check_litmus",
        lambda trace, committed, image: LitmusVerdict("atomicity", "injected"),
    )
    replayed = replay.run(cell_spec_to_json(spec))
    assert not replayed.passed
    report = replayed.format_report()
    assert "atomicity: injected" in report
    assert "DISAGREE" in report
    assert "verdict: FAIL" in report
