"""Table IV — battery requirements of eADR, BBB and Silo.

Expected shape: exact analytic reproduction — Silo flushes 5.3125 KB
at 62 uJ, needing a supercapacitor ~0.17 mm^3; eADR needs roughly
three orders of magnitude more (paper: 888x the volume).
"""

import pytest
from conftest import run_once

from repro.harness import table1, table4
from repro.harness.experiments import run_experiment


def test_table4_battery_requirements(benchmark):
    result = run_once(benchmark, lambda: run_experiment(table4.SPEC))
    print()
    print(result.format_report())

    rows = result.rows
    silo = rows["Silo"]
    assert silo.flush_size_kb == pytest.approx(5.3125)
    assert silo.flush_energy_uj == pytest.approx(61.08, rel=0.01)
    assert silo.cap_volume_mm3 == pytest.approx(0.17, rel=0.02)
    assert rows["eADR"].cap_volume_mm3 / silo.cap_volume_mm3 > 500
    assert rows["BBB"].cap_volume_mm3 / silo.cap_volume_mm3 > 2


def test_table1_hardware_overhead(benchmark):
    result = run_once(benchmark, lambda: run_experiment(table1.SPEC))
    print()
    print(result.format_report())
    assert "680B" in result.rows["Log buffer"]
