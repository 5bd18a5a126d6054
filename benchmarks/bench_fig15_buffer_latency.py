"""Fig. 15 — throughput sensitivity to the log buffer access latency.

Expected shape: essentially flat from 8 to 128 cycles, because the
buffer sits off the critical path (the paper reports a 3.3% average
drop at 128 cycles).
"""

from conftest import run_once

from repro.harness import fig15
from repro.harness.experiments import run_experiment


def test_fig15_buffer_latency_insensitive(benchmark, bench_tx):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            fig15.SPEC,
            threads=4,
            transactions=bench_tx,
            latencies=(8, 32, 64, 96, 128),
        ),
    )
    print()
    print(result.format_report())

    # No workload loses more than ~20% even at a 128-cycle buffer.
    assert result.worst_degradation() < 0.20
    # The average stays within a few percent of the 8-cycle baseline
    # (the paper reports a 3.3% average drop).
    per_workload_128 = [row[128] for row in result.throughput.values()]
    average_128 = sum(per_workload_128) / len(per_workload_128)
    assert average_128 > 0.90
