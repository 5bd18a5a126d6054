"""Content-addressed trace-artifact store: build a workload once per
campaign, share it across every worker process.

Every executor cell names its workload by *recipe* (a
:class:`~repro.harness.executor.WorkloadSpec`), and before this store
existed each worker process re-synthesized the trace — RNG draws, data
-structure modeling, op-object construction — and re-ran the columnar
engine's whole-trace decode, once per process per recipe.  Campaign
wall-clock at scale is dominated by exactly that redundant pre-work.

This store lifts both out of the per-cell path:

* an **artifact** is the trace serialized as flat columns (per-thread
  op kinds / addresses / values plus transaction lengths and the
  initial PM image) together with the columnar engine's exported
  decode columns (:func:`repro.sim.columnar.export_decode_columns`);
* artifacts are **content-addressed** by the canonical JSON of the
  workload recipe plus a fingerprint of the trace-affecting sources
  (``repro/trace`` + ``repro/workloads`` + ``repro/litmus``) and the
  decode format
  version — an edit to the simulator proper does *not* invalidate
  them, an edit to a workload builder or the columnar decode does;
* loading is **zero-parse**: ops are rebuilt by slot assignment
  (their invariants were validated when the artifact was built) and
  the decode columns are seeded straight into the engine's memo, so
  the first columnar run of a loaded trace skips analysis entirely.

The executor builds every distinct pending recipe once in the parent
before fanning out, so workers only ever *load*.  Artifacts are the
``traces`` namespace of the store (:mod:`repro.harness.store`), which
owns their layout, atomic writes and hardened loads; this module keeps
only the column codec and ``load``/``build``/``ensure``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.harness.store import MISS, Namespace, source_fingerprint
from repro.sim.columnar import (
    DECODE_VERSION,
    export_decode_columns,
    precompute_trace,
    seed_decode_columns,
)
from repro.trace.ops import Load, Store
from repro.trace.trace import ThreadTrace, Trace, Transaction
from repro.workloads.registry import build_workload


def _columns_from_trace(trace: Trace) -> dict:
    """Flatten a trace into picklable columns (no op objects)."""
    tids = []
    tx_lens = []
    kinds = []
    addrs = []
    vals = []
    for thread in trace.threads:
        tids.append(thread.tid)
        lens = []
        k = bytearray()
        a = []
        v = []
        for tx in thread.transactions:
            lens.append(len(tx.ops))
            for op in tx.ops:
                if type(op) is Store:
                    k.append(1)
                    a.append(op.addr)
                    v.append(op.value)
                else:  # Load — traces carry no other op kinds
                    k.append(0)
                    a.append(op.addr)
                    v.append(0)
        tx_lens.append(lens)
        kinds.append(bytes(k))
        addrs.append(a)
        vals.append(v)
    return {
        "name": trace.name,
        "tids": tids,
        "tx_lens": tx_lens,
        "kinds": kinds,
        "addrs": addrs,
        "vals": vals,
        "image": dict(trace.initial_image),
        "decode": export_decode_columns(trace),
    }


def _trace_from_columns(columns: dict) -> Trace:
    """Rebuild the trace by slot assignment — no validation re-runs
    (the builder validated once, at artifact-build time) — and seed
    its decode columns into the columnar engine's memo."""
    store_new = Store.__new__
    load_new = Load.__new__
    threads = []
    for tid, lens, kinds, addrs, vals in zip(
        columns["tids"],
        columns["tx_lens"],
        columns["kinds"],
        columns["addrs"],
        columns["vals"],
    ):
        i = 0
        transactions = []
        for n in lens:
            ops = []
            append = ops.append
            for j in range(i, i + n):
                if kinds[j]:
                    op = store_new(Store)
                    op.addr = addrs[j]
                    op.value = vals[j]
                else:
                    op = load_new(Load)
                    op.addr = addrs[j]
                append(op)
            i += n
            tx = Transaction.__new__(Transaction)
            tx.ops = ops
            transactions.append(tx)
        thread = ThreadTrace.__new__(ThreadTrace)
        thread.tid = tid
        thread.transactions = transactions
        threads.append(thread)
    trace = Trace.__new__(Trace)
    trace.threads = threads
    trace.initial_image = columns["image"]
    trace.name = columns["name"]
    seed_decode_columns(trace, columns["decode"])
    return trace


class TraceArtifactStore(Namespace):
    """Built + decoded workload traces under ``<root>/traces/``."""

    name = "traces"

    @classmethod
    def scope(cls) -> str:
        """The sources that determine a built trace and its decode:
        ``repro/trace``, ``repro/workloads``, ``repro/litmus`` (pattern
        lowering) and the columnar decode version.

        Deliberately *narrower* than the results' whole-package
        fingerprint: a timing-model edit changes every simulated result
        but not the traces, so artifacts survive it.
        """
        return source_fingerprint(
            ("trace", "workloads", "litmus"), salt=f"decode-v{DECODE_VERSION}"
        )

    @staticmethod
    def key(spec: Any) -> str:
        """Canonical JSON of one workload recipe (duck-typed so the
        executor's :class:`WorkloadSpec` needs no import here)."""
        return json.dumps(
            {
                "name": spec.name,
                "threads": spec.threads,
                "transactions": spec.transactions,
                "kwargs": {k: v for k, v in spec.kwargs},
            },
            sort_keys=True,
            default=repr,
        )

    def load(self, spec: Any) -> Optional[Trace]:
        """Load the artifact for ``spec``; ``None`` on miss (a corrupt
        or malformed artifact is quarantined and rebuilt)."""
        trace = self._tally(self.read(self.key(spec), _trace_from_columns))
        return None if trace is MISS else trace

    def ensure(self, spec: Any, trace: Trace) -> None:
        """Serialize an already-built ``trace`` for ``spec`` unless its
        artifact is already on disk (decode columns ride along)."""
        key = self.key(spec)
        if not self.path(key).exists():
            self.write(key, _columns_from_trace(trace))

    def build(self, spec: Any) -> Trace:
        """Load the artifact, or synthesize + decode + store it."""
        trace = self.load(spec)
        if trace is not None:
            return trace
        trace = build_workload(
            spec.name,
            threads=spec.threads,
            transactions=spec.transactions,
            **dict(spec.kwargs),
        )
        precompute_trace(trace)
        self.write(self.key(spec), _columns_from_trace(trace))
        return trace
