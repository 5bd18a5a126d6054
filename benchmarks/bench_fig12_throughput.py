"""Fig. 12 — normalized transaction throughput for all five designs.

Expected shape (paper): Base slowest everywhere; MorLog above FWB;
Silo highest, beating MorLog by a growing multiple as cores increase
(paper: 4.3x at 8 cores) and staying ahead of LAD.
"""

import pytest
from conftest import run_once

from repro.harness import fig12
from repro.harness.experiments import run_experiment


@pytest.mark.parametrize("cores", [1, 8])
def test_fig12_throughput(benchmark, bench_tx, cores):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            fig12.SPEC, core_counts=(cores,), transactions=bench_tx
        ),
    )
    print()
    print(result.format_report())

    avg = result.normalized(cores)["average"]
    assert avg["base"] == 1.0
    assert min(avg.values()) == 1.0  # base slowest
    assert avg["morlog"] > avg["fwb"] > 1.0
    assert avg["silo"] > avg["lad"] > avg["morlog"]
    if cores == 8:
        # Silo's multi-x win over the log-writing designs (paper:
        # 4.3x over MorLog, 6.4x over FWB at 8 cores).
        assert avg["silo"] > 2.5 * avg["morlog"]
        assert avg["silo"] > 4.0 * avg["fwb"]


def test_fig12_silo_gain_grows_with_cores(benchmark, bench_tx):
    """The scalability claim: removing ordering constraints makes
    Silo's advantage larger at higher core counts."""
    result = run_once(
        benchmark,
        lambda: run_experiment(
            fig12.SPEC, core_counts=(1, 8), transactions=bench_tx
        ),
    )
    gain_1 = result.normalized(1)["average"]["silo"]
    gain_8 = result.normalized(8)["average"]["silo"]
    print(f"\nsilo vs base: {gain_1:.2f}x at 1 core, {gain_8:.2f}x at 8 cores")
    assert gain_8 > gain_1
