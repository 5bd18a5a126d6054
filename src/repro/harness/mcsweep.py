"""Sensitivity to the number of memory controllers (Section III-D).

The paper argues Silo needs no cross-MC coordination: each MC serves
the whole memory, a transaction's logs and in-place updates meet at
its core's MC, and Silo's efficiency is therefore "not affected by the
number of MCs".  This experiment sweeps 1/2/4 MCs and reports Silo's
throughput advantage over Base at each point — the advantage should
persist (more MCs relieve bandwidth pressure for everyone, but never
invert the ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    TableData,
    TabularResult,
)

SWEEP_CHANNELS: Tuple[int, ...] = (1, 2, 4)


@dataclass
class MCSweepResult(TabularResult):
    """``speedup[workload][channels]`` = Silo throughput / Base
    throughput at that MC count."""

    speedup: Dict[str, Dict[int, float]]
    channels: Tuple[int, ...]

    def min_advantage(self) -> float:
        return min(min(row.values()) for row in self.speedup.values())

    def tables(self) -> List[TableData]:
        rows: List[List[object]] = [
            [name] + [row[c] for c in self.channels]
            for name, row in self.speedup.items()
        ]
        return [
            TableData.make(
                ["workload"] + [f"{c} MC(s)" for c in self.channels],
                rows,
                title="MC sweep — Silo speedup over Base vs number of MCs",
            )
        ]


def _speedup(c, workload: str, channels: int) -> float:
    silo = c.run_result(workload=workload, channels=channels, scheme="silo")
    base = c.run_result(workload=workload, channels=channels, scheme="base")
    if not base.throughput_tx_per_sec:
        return 0.0
    return silo.throughput_tx_per_sec / base.throughput_tx_per_sec


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="mcsweep",
        figure="extension",
        description="Silo speedup over Base across 1/2/4 memory controllers",
        params=dict(
            threads=8,
            transactions=120,
            workloads=("hash", "queue", "tpcc"),
            channels=SWEEP_CHANNELS,
        ),
        smoke_params=dict(
            threads=2, transactions=15, workloads=("hash",), channels=(1, 2)
        ),
        axes=lambda p: (
            Axis("workload", p["workloads"]),
            Axis("channels", p["channels"]),
            Axis("scheme", ("silo", "base")),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=p["threads"], transactions=p["transactions"]
            ),
            scheme=pt["scheme"],
            cores=p["threads"],
            config=replace(
                SystemConfig.table2(p["threads"]), memory_channels=pt["channels"]
            ),
        ),
        assemble=lambda p, c: MCSweepResult(
            speedup={
                name: {n: _speedup(c, name, n) for n in p["channels"]}
                for name in p["workloads"]
            },
            channels=tuple(p["channels"]),
        ),
    )
)
