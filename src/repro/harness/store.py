"""The executor's one on-disk store: content-addressed pickles under a
cache root, split into namespaces.

Every simulation cell is a pure function of its spec *and* of the
simulator source, and every workload trace is a pure function of its
recipe and of the trace-building sources.  The store therefore keys
each entry by a caller-chosen canonical key string plus a **source
fingerprint** scoped to what can change the stored value:

* ``results`` (:class:`~repro.harness.resultcache.ResultCache`) holds
  settled cell outcomes, fingerprinted over the whole ``repro``
  package, so any simulator edit invalidates them;
* ``traces`` (:class:`~repro.harness.traceartifacts.TraceArtifactStore`)
  holds built + decoded workload traces, fingerprinted over
  ``repro/trace`` + ``repro/workloads`` + ``repro/litmus`` and the
  columnar decode version, so a timing-model edit keeps them.

This module owns everything the namespaces share: addressing, the
``<root>/<namespace>/<2-char shard>/<sha256>.pkl`` layout, the atomic
writer, the hardened loader with its quarantine path, the format
version, and the stats/clear code behind ``silo-repro cache
stats|clear``.  The default root is ``.repro-cache/`` in the working
directory (``$SILO_CACHE_DIR`` or ``--cache-dir`` override it).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

#: Default cache root, overridable via ``$SILO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to orphan every existing entry after an incompatible layout or
#: payload change.  Folded into every digest.
FORMAT_VERSION = 2

#: Directories of the pre-namespace layout; ``clear`` removes them too.
_LEGACY_DIRS = ("objects", "journal")

#: Sentinel distinguishing "miss" from a legitimately-``None`` value.
MISS = object()

_FINGERPRINT_MEMO: Dict[tuple, str] = {}

#: Namespaces that already printed a quarantine warning this process.
_QUARANTINE_WARNED: set = set()


def default_cache_dir() -> str:
    return os.environ.get("SILO_CACHE_DIR", DEFAULT_CACHE_DIR)


def source_fingerprint(
    subtrees: Sequence[str] = ("",),
    salt: str = "",
    root: Optional[str] = None,
) -> str:
    """SHA-256 over the ``.py`` sources of ``subtrees`` of the package.

    ``root`` defaults to the installed ``repro`` package; ``("",)``
    covers all of it.  Hashes file *contents* and package-relative
    paths (not mtimes), so rebuilding an identical tree keeps the
    fingerprint and any semantic edit changes it.  ``salt`` folds in a
    version that lives outside the sources.  Memoized per process.
    """
    if root is None:
        import repro

        root = str(Path(repro.__file__).parent)
    memo_key = (root, tuple(subtrees), salt)
    memo = _FINGERPRINT_MEMO.get(memo_key)
    if memo is not None:
        return memo
    base = Path(root)
    digest = hashlib.sha256(f"{salt}\0".encode())
    for sub in subtrees:
        for path in sorted((base / sub).rglob("*.py")):
            digest.update(path.relative_to(base).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    value = _FINGERPRINT_MEMO[memo_key] = digest.hexdigest()
    return value


def _quarantine(path: Path, namespace: str) -> None:
    """Move a corrupt entry aside as ``<name>.corrupt``.

    The bad bytes are kept for post-mortems instead of being
    overwritten by the rebuild, and the rename takes the entry off the
    read path so it is reported exactly once.  One warning per
    namespace per process: a campaign re-reading a damaged cache must
    not flood stderr.
    """
    target = Path(str(path) + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    if namespace not in _QUARANTINE_WARNED:
        _QUARANTINE_WARNED.add(namespace)
        print(
            f"[{namespace}] quarantined corrupt entry {path.name} -> "
            f"{target.name}; treating as a miss and rebuilding "
            "(further quarantines this run are silent)",
            file=sys.stderr,
            flush=True,
        )


class Namespace:
    """One namespace of the store under ``root`` (the cache root).

    Subclasses name the namespace and scope its fingerprint; keys are
    opaque canonical strings, and the digest folds in the fingerprint
    and :data:`FORMAT_VERSION`, so callers never reason about
    invalidation.
    """

    #: Directory under the cache root; set by each subclass.
    name = ""

    def __init__(
        self, root: Optional[str] = None, fingerprint: Optional[str] = None
    ) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.fingerprint = (
            fingerprint if fingerprint is not None else self.scope()
        )
        self.hits = 0
        self.misses = 0

    @classmethod
    def scope(cls) -> str:
        """The source fingerprint this namespace's entries depend on."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def digest(self, key: str) -> str:
        return hashlib.sha256(
            f"v{FORMAT_VERSION}\0{self.fingerprint}\0{key}".encode()
        ).hexdigest()

    def path(self, key: str) -> Path:
        digest = self.digest(key)
        return self.root / self.name / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def read(self, key: str, decode: Optional[Callable] = None):
        """The stored value for ``key`` (through ``decode``), or
        :data:`MISS`.

        A missing entry is a plain miss.  Anything else that goes
        wrong — a truncated pickle, garbage bytes, a class gone after a
        refactor, a ``MemoryError`` from a hostile length prefix, a
        payload ``decode`` rejects — quarantines the entry and reads
        as a miss, so a damaged entry can never crash a campaign.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
            return decode(value) if decode is not None else value
        except FileNotFoundError:
            return MISS
        except Exception:
            _quarantine(path, self.name)
            return MISS

    def write(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic rename, last wins)."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _tally(self, value):
        if value is MISS:
            self.misses += 1
        else:
            self.hits += 1
        return value

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Entry count and footprint of the namespace directory, plus
        this process's hit/miss counters."""
        base = self.root / self.name
        entries = 0
        total_bytes = 0
        for path in base.rglob("*.pkl"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "root": str(base),
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": sum(1 for _ in base.rglob("*.corrupt")),
            "hits": self.hits,
            "misses": self.misses,
            "fingerprint": self.fingerprint[:16],
        }

    def format_stats(self) -> str:
        s = self.stats()
        quarantined = (
            f", {s['quarantined']} quarantined" if s["quarantined"] else ""
        )
        return (
            f"{self.name} {s['root']}: {s['entries']} entries, "
            f"{s['bytes'] / 1024:.1f} KiB{quarantined}, "
            f"fingerprint {s['fingerprint']}"
        )

    def clear(self) -> int:
        """Delete the namespace directory (quarantined and half-written
        files included); returns how many live entries it held."""
        base = self.root / self.name
        removed = sum(1 for _ in base.rglob("*.pkl"))
        shutil.rmtree(base, ignore_errors=True)
        for legacy in _LEGACY_DIRS:
            shutil.rmtree(self.root / legacy, ignore_errors=True)
        return removed
