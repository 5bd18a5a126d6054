"""The paper's default evaluation grid: designs, benchmarks, size.

The grid studies (``fig11``, ``fig12``, ``fig13``, ``catalog``) declare
their default parameters from these constants; run any of them with
``silo-repro exp run <name>`` or
``run_experiment(<module>.SPEC, **params)``.
"""

from typing import Tuple

#: The evaluated designs, in the paper's plotting order.
DEFAULT_SCHEMES: Tuple[str, ...] = ("base", "fwb", "morlog", "lad", "silo")

#: The Fig. 11/12 benchmarks, in the paper's plotting order.
DEFAULT_WORKLOADS: Tuple[str, ...] = (
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
)

#: Default transactions per thread: large enough for stable ratios,
#: small enough that the full grid runs in minutes of Python.
DEFAULT_TRANSACTIONS = 200
