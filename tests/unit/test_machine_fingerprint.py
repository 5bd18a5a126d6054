"""``repro.harness.bench.machine_fingerprint``: the machine identity the
performance ledger stamps on every record, so wall-clock numbers are only
compared between runs on the same kind of machine."""

from __future__ import annotations

import os
import platform

from repro.harness import bench
from repro.harness.bench import machine_fingerprint


def test_fingerprint_names_os_arch_interpreter_and_cpu_count():
    assert machine_fingerprint().split("|") == [
        platform.system(),
        platform.machine(),
        platform.python_implementation(),
        str(os.cpu_count() or 0),
    ]


def test_fingerprint_is_stable_within_a_process():
    assert machine_fingerprint() == machine_fingerprint()


def test_fingerprint_separates_machines_by_cpu_count(monkeypatch):
    here = machine_fingerprint()
    cpus = os.cpu_count() or 0
    monkeypatch.setattr(os, "cpu_count", lambda: cpus + 1)
    assert machine_fingerprint() != here


def test_module_holds_only_the_fingerprint():
    public = {
        name
        for name, value in vars(bench).items()
        if callable(value) and getattr(value, "__module__", None) == bench.__name__
    }
    assert public == {"machine_fingerprint"}
