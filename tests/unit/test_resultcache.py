"""Unit tests for the content-addressed on-disk store and its two
namespaces: ``results`` (settled cell outcomes) and ``traces`` (built
workload artifacts)."""

from repro.harness.executor import CellOutcome, CellSpec, WorkloadSpec
from repro.harness.resultcache import ResultCache
from repro.harness.store import _FINGERPRINT_MEMO, MISS, source_fingerprint
from repro.harness.traceartifacts import TraceArtifactStore


def make_cache(tmp_path, fingerprint="fp"):
    return ResultCache(str(tmp_path / "c"), fingerprint=fingerprint)


def outcome(value=1, kind="ok"):
    spec = CellSpec(
        workload=WorkloadSpec.make("hash", threads=1, transactions=2),
        scheme="base",
        cores=1,
    )
    if kind == "ok":
        return CellOutcome(spec=spec, result=value)
    return CellOutcome(spec=spec, error="Traceback: boom", kind=kind)


class TestStoreLoad:
    def test_round_trip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("key-1", {"answer": 42})
        assert cache.get("key-1") == {"answer": 42}

    def test_outcome_round_trip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", outcome(7))
        restored = cache.get("k")
        assert restored is not MISS
        assert restored.result == 7

    def test_miss_on_unknown_key(self, tmp_path):
        assert make_cache(tmp_path).get("absent") is MISS

    def test_value_none_is_not_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_last_put_wins(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", [1, 2, 3])
        path = cache.path("k")
        path.write_bytes(b"not a pickle")
        assert cache.get("k") is MISS


class TestErrorOutcomes:
    def test_stored_error_is_served_only_when_asked(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", outcome(kind="error"))
        assert cache.get("k") is MISS
        served = cache.get("k", errors=True)
        assert served.kind == "error" and not served.ok
        assert cache.hits == 1 and cache.misses == 1

    def test_ok_outcome_is_served_either_way(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", outcome(3))
        assert cache.get("k").result == 3
        assert cache.get("k", errors=True).result == 3

    def test_stats_count_error_outcomes(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.stats()["entries"] == 0
        cache.put("a", outcome())
        cache.put("b", outcome(kind="error"))
        cache.put("a", outcome())  # same slot, last wins
        assert cache.stats()["entries"] == 2


class TestQuarantine:
    def test_truncated_entry_is_quarantined_and_rebuilt(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", list(range(1000)))
        path = cache.path("k")
        path.write_bytes(path.read_bytes()[:10])  # killed writer
        assert cache.get("k") is MISS
        # The bad bytes moved aside for post-mortems; the slot is free.
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        assert not path.exists()
        assert cache.stats()["quarantined"] == 1
        # The rebuild overwrites the slot and hits normally again.
        cache.put("k", "rebuilt")
        assert cache.get("k") == "rebuilt"
        assert cache.stats()["quarantined"] == 1

    def test_garbage_bytes_are_quarantined(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", 42)
        path = cache.path("k")
        path.write_bytes(b"\x80\x05garbage that is no pickle")
        assert cache.get("k") is MISS
        assert path.with_name(path.name + ".corrupt").exists()

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get("absent") is MISS
        # A missing entry must not leave a quarantine artifact behind.
        assert not cache.root.exists()

    def test_format_stats_mentions_quarantined_entries(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", 1)
        path = cache.path("k")
        path.write_bytes(b"junk")
        cache.get("k")
        assert "quarantined" in cache.format_stats()

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("k", 1)
        path = cache.path("k")
        path.write_bytes(b"junk")
        cache.get("k")
        cache.clear()
        assert cache.stats()["quarantined"] == 0


class TestAddressing:
    def test_digest_is_stable(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.digest("k") == cache.digest("k")

    def test_digest_depends_on_key_and_fingerprint(self, tmp_path):
        a = make_cache(tmp_path, "fp-a")
        b = make_cache(tmp_path, "fp-b")
        assert a.digest("k") != a.digest("other")
        assert a.digest("k") != b.digest("k")

    def test_different_fingerprints_do_not_share_entries(self, tmp_path):
        a = ResultCache(str(tmp_path / "c"), fingerprint="fp-a")
        a.put("k", "va")
        b = ResultCache(str(tmp_path / "c"), fingerprint="fp-b")
        assert b.get("k") is MISS


class TestSourceFingerprint:
    def test_tracks_file_contents(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "a.py").write_text("x = 1\n")
        first = source_fingerprint(root=str(tree))
        # Memoized: identical on re-query.
        assert source_fingerprint(root=str(tree)) == first
        (tree / "a.py").write_text("x = 2\n")
        _FINGERPRINT_MEMO.clear()
        assert source_fingerprint(root=str(tree)) != first

    def test_subtrees_and_salt_scope_the_walk(self, tmp_path):
        tree = tmp_path / "pkg"
        (tree / "sub").mkdir(parents=True)
        (tree / "top.py").write_text("x = 1\n")
        (tree / "sub" / "a.py").write_text("y = 1\n")
        scoped = source_fingerprint(("sub",), root=str(tree))
        assert scoped != source_fingerprint(root=str(tree))
        assert scoped != source_fingerprint(("sub",), salt="v2", root=str(tree))
        (tree / "top.py").write_text("x = 2\n")
        _FINGERPRINT_MEMO.clear()
        # An edit outside the scoped subtree keeps its fingerprint.
        assert source_fingerprint(("sub",), root=str(tree)) == scoped

    def test_real_package_fingerprint_is_memoized(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 64

    def test_namespaces_have_their_own_scope(self):
        assert ResultCache.scope() == source_fingerprint()
        assert TraceArtifactStore.scope() != ResultCache.scope()


class TestManagement:
    def test_stats_count_entries_and_bytes(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("absent")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert "entries" in cache.format_stats() or "cache" in cache.format_stats()

    def test_clear_removes_everything(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0
        assert cache.get("a") is MISS

    def test_clear_on_empty_cache(self, tmp_path):
        assert make_cache(tmp_path).clear() == 0

    def test_namespaces_nest_under_the_cache_root(self, tmp_path):
        root = tmp_path / "c"
        results = ResultCache(str(root), fingerprint="fp")
        traces = TraceArtifactStore(str(root), fingerprint="fp")
        results.put("k", 1)
        traces.build(WorkloadSpec.make("hash", threads=1, transactions=2))
        assert sorted(p.name for p in root.iterdir()) == ["results", "traces"]
        # Same key and fingerprint, different namespace, different file.
        assert results.path("k") != traces.path("k")

    def test_clearing_one_namespace_keeps_the_other(self, tmp_path):
        results = make_cache(tmp_path)
        traces = TraceArtifactStore(str(results.root), fingerprint="fp")
        results.put("k", 1)
        traces.build(WorkloadSpec.make("hash", threads=1, transactions=2))
        assert results.clear() == 1
        assert traces.stats()["entries"] == 1

    def test_clear_removes_the_legacy_layout(self, tmp_path):
        cache = make_cache(tmp_path)
        for legacy in ("objects/ab/x.pkl", "journal/d/y.pkl"):
            path = cache.root / legacy
            path.parent.mkdir(parents=True)
            path.write_bytes(b"old")
        cache.clear()
        assert list(cache.root.rglob("*.pkl")) == []


class TestTraceNamespace:
    def test_corrupt_artifact_quarantined_and_rebuilt(self, tmp_path):
        store = TraceArtifactStore(str(tmp_path / "cache"))
        wspec = WorkloadSpec.make("hash", threads=1, transactions=2)
        built = store.build(wspec)
        path = store.path(store.key(wspec))
        assert path.exists()
        path.write_bytes(b"\x80not a pickle")
        assert store.load(wspec) is None  # quarantined, not crashed
        assert path.with_name(path.name + ".corrupt").exists()
        rebuilt = store.build(wspec)
        assert rebuilt.total_transactions == built.total_transactions
        assert store.load(wspec) is not None

    def test_malformed_artifact_is_quarantined(self, tmp_path):
        store = TraceArtifactStore(str(tmp_path / "cache"))
        wspec = WorkloadSpec.make("hash", threads=1, transactions=2)
        store.write(store.key(wspec), {"not": "columns"})
        assert store.load(wspec) is None
        assert store.stats()["quarantined"] == 1

    def test_clear_removes_quarantined_artifacts(self, tmp_path):
        store = TraceArtifactStore(str(tmp_path / "cache"))
        wspec = WorkloadSpec.make("hash", threads=1, transactions=2)
        store.build(wspec)
        store.path(store.key(wspec)).write_bytes(b"junk")
        store.load(wspec)
        store.clear()
        assert store.stats()["quarantined"] == 0
