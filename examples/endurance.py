#!/usr/bin/env python3
"""PM endurance: how much lifetime each logging design costs.

The paper's abstract leads with endurance: conventional hardware
logging "inevitably increases the log writes to PM, thus exacerbating
the limited endurance".  This example measures the media wear each
design leaves behind on a skewed YCSB run and converts it into
relative PM lifetime under wear-leveling.

Run:  python examples/endurance.py
"""

from repro import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.harness.report import format_bars
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.workloads import build_workload

SCHEMES = ("base", "fwb", "morlog", "lad", "silo")


def main() -> None:
    cores = 2
    trace = build_workload("ycsb", threads=cores, transactions=400)

    writes_per_tx = {}
    print(f"{'design':8s} {'media writes/tx':>16s} {'hottest sector':>15s} "
          f"{'hot-1% share':>13s}")
    for scheme in SCHEMES:
        system = System(SystemConfig.table2(cores))
        result = TransactionEngine(
            system, SchemeRegistry.create(scheme, system), trace
        ).run()
        # Writes per touched media sector, hottest first.
        wear = sorted(system.pm.media.wear_profile().values(), reverse=True)
        total = sum(wear)
        hot_share = sum(wear[: max(1, len(wear) // 100)]) / total
        writes_per_tx[scheme] = total / max(result.committed_count, 1)
        print(
            f"{scheme:8s} {writes_per_tx[scheme]:16.2f} "
            f"{wear[0]:15d} {hot_share:13.2f}"
        )

    # Under wear-leveling, lifetime is inversely proportional to the
    # total write volume per transaction.
    lifetimes = {
        scheme: writes_per_tx["base"] / per_tx
        for scheme, per_tx in writes_per_tx.items()
    }
    print()
    print(format_bars(lifetimes, title="relative PM lifetime (wear-leveled, "
                                       "normalized to base)", unit="x"))
    print(
        "\nSilo's speculative logging writes no logs in the failure-free"
        "\ncase, so the PM outlives the conventional designs' by the same"
        "\nfactor it cuts write traffic (paper: 76.5% fewer writes than"
        "\nMorLog)"
    )


if __name__ == "__main__":
    main()
