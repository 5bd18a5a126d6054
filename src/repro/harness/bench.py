"""Machine identity for wall-clock measurements.

The performance ledger (``benchmarks/ledger/``) is the one caller of
:func:`machine_fingerprint`: it stamps the fingerprint on every ledger
record and table header, so wall-clock numbers are only compared
between runs on the same kind of machine.  The ledger imports it from
this module path, which is why the module stays.
"""

from __future__ import annotations

import os
import platform


def machine_fingerprint() -> str:
    """A coarse identity of the machine a benchmark ran on.

    Wall-clock throughput is only comparable between runs on the same
    hardware, so wall-clock comparisons are gated on this fingerprint
    matching; deterministic fields (``end_cycle``, counters, digests)
    are compared across machines.
    """
    return "|".join(
        (
            platform.system(),
            platform.machine(),
            platform.python_implementation(),
            str(os.cpu_count() or 0),
        )
    )
