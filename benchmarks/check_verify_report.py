"""Gate one crash-verification campaign report (litmus or faultsweep).

Usage::

    python benchmarks/check_verify_report.py LITMUS.json
    python benchmarks/check_verify_report.py FAULTSWEEP.json

The report is the one JSON schema that ``silo-repro litmus`` and
``silo-repro faultsweep`` write with ``--output``; the checks follow
``record["campaign"]``.  Both campaigns must have passed with no oracle
violations.  Litmus must also cover at least 500 cells over all 13
designs with no oracle disagreements; faultsweep must inject faults,
find no silent corruption, carry its metrics roll-up and point at a
non-empty ``--trace-output`` artifact.  Exits nonzero on the first
failed check.
"""

from __future__ import annotations

import json
import sys


def check_litmus(record: dict) -> str:
    assert record["cells"] >= 500, (
        f"smoke catalog too small: {record['cells']} cells"
    )
    assert record["disagreements"] == [], record["disagreements"]
    assert len(record["per_scheme"]) == 13, record["per_scheme"]
    return (
        f"litmus: {record['sources']} patterns, "
        f"{record['cells']} cells, 0 violations"
    )


def check_faultsweep(record: dict) -> str:
    assert record["silent"] == 0, (
        f"silent corruption verdicts: {record['silent']}"
    )
    injected = sum(record["injected"].values())
    assert injected > 0, "no faults injected"
    assert record["metrics"], "campaign carried no aggregated metrics"
    assert record["trace"], "no trace artifact (run with --trace-output)"
    with open(record["trace"]) as handle:
        events = json.load(handle)["traceEvents"]
    assert events, "trace artifact is empty"
    return (
        f"faultsweep: {record['cells']} cells, {injected} faults injected, "
        f"0 silent, 0 violations; trace artifact {len(events)} events"
    )


CHECKS = {"litmus": check_litmus, "faultsweep": check_faultsweep}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        record = json.load(handle)
    campaign = record["campaign"]
    assert campaign in CHECKS, f"no checks for campaign {campaign!r}"
    assert record["passed"] is True, f"{campaign} campaign failed"
    assert record["violations"] == [], f"oracle violations: {record['violations']}"
    print(CHECKS[campaign](record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
