"""The ``results`` namespace of the store: settled cell outcomes.

Each outcome is keyed by the canonical JSON of its cell spec (see
:func:`repro.harness.executor.spec_key`) and the whole-package source
fingerprint, so a hit is always safe to trust bit-for-bit.  Settled
outcomes of both kinds are stored: ``ok`` results, and deterministic
``error`` outcomes (the cell's own code raised).  A plain lookup
serves only ``ok`` outcomes; a resumed campaign (``--resume``) also
serves stored errors, so it re-runs only the cells that never settled.
``timeout``/``infra`` outcomes describe the infrastructure, not the
cell, and are never stored.
"""

from __future__ import annotations

from repro.harness.store import MISS, Namespace, source_fingerprint


class ResultCache(Namespace):
    """Settled cell outcomes under ``<root>/results/``."""

    name = "results"

    @classmethod
    def scope(cls) -> str:
        return source_fingerprint()

    def get(self, key: str, errors: bool = False):
        """The stored value for ``key``, or :data:`MISS`.

        A stored ``error`` outcome reads as a miss unless ``errors`` is
        set (resumed runs); a corrupt entry is quarantined and reads as
        a miss, so the cell simply recomputes and rewrites the slot."""
        value = self.read(key)
        if not errors and getattr(value, "kind", "ok") != "ok":
            value = MISS
        return self._tally(value)

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic rename, last wins)."""
        self.write(key, value)
