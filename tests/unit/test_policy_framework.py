"""Unit tests for the composable design-policy framework."""

import math

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.designs.policy import (
    FENCE_CYCLES,
    AdaptiveGranularity,
    FenceSchedule,
    PageGranularity,
    WordGranularity,
)
from repro.designs.scheme import SchemeRegistry
from repro.hwlog.entry import LogEntry
from repro.hwlog.region import LogRegion
from repro.mem.pm import RegionLayout
from repro.sim.results import RunResult


def entries(n, tid=0, txid=1, base=0x1000):
    return [LogEntry(tid, txid, base + 8 * i, i, i + 1) for i in range(n)]


class TestUnknownSchemeError:
    def test_close_typo_gets_did_you_mean(self):
        with pytest.raises(ConfigError) as err:
            SchemeRegistry.create("aglogg", None)
        message = str(err.value)
        assert "unknown scheme 'aglogg'" in message
        assert "did you mean 'aglog'?" in message

    def test_known_names_listed(self):
        with pytest.raises(ConfigError) as err:
            SchemeRegistry.create("zzz-not-a-design", None)
        message = str(err.value)
        for name in ("base", "silo", "aglog", "quadra1f", "trinity2f"):
            assert name in message
        assert "did you mean" not in message

    def test_case_insensitive_suggestion(self):
        with pytest.raises(ConfigError) as err:
            SchemeRegistry.create("Trinity2F", None)
        assert "did you mean 'trinity2f'?" in str(err.value)

    def test_cell_spec_fails_fast_on_typo(self):
        from repro.harness.executor import CellSpec, WorkloadSpec

        with pytest.raises(ConfigError, match="did you mean 'silo'"):
            CellSpec(
                workload=WorkloadSpec.make("hash", threads=1, transactions=1),
                scheme="silos",
                cores=1,
            )


class TestFenceScheduleValidation:
    def test_declared_count_must_match_lowering(self):
        with pytest.raises(ValueError, match="declares 3 fences"):
            FenceSchedule(
                "bad",
                fences=3,
                wait_log_persist=False,
                inplace_fence=False,
                truncate_fence=False,
            )

    def test_valid_ladder_counts(self):
        for count, (wait, inplace, trunc) in {
            1: (False, False, False),
            2: (True, False, False),
            3: (True, True, False),
            4: (True, True, True),
        }.items():
            schedule = FenceSchedule(
                f"ok{count}",
                fences=count,
                wait_log_persist=wait,
                inplace_fence=inplace,
                truncate_fence=trunc,
            )
            assert schedule.fence_cycles == FENCE_CYCLES


class TestGranularityPolicies:
    def test_adaptive_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            AdaptiveGranularity(threshold=0)

    def test_adaptive_splits_runs_by_threshold(self):
        # One 3-word run on line 0x1000, one singleton on line 0x2000.
        batch = entries(3, base=0x1000) + entries(1, base=0x2000)
        counters = Stats().counters
        chunks = AdaptiveGranularity(threshold=3).pack(batch, counters)
        modes = [(mode, len(chunk)) for mode, chunk in chunks]
        assert modes == [("run", 3), ("word", 1)]
        assert counters["granularity.page_runs"] == 1
        assert counters["granularity.page_words"] == 3
        assert counters["granularity.word_entries"] == 1

    def test_adaptive_threshold_one_is_pure_page(self):
        batch = entries(3, base=0x1000) + entries(1, base=0x2000)
        chunks = AdaptiveGranularity(threshold=1).pack(batch, Stats().counters)
        assert [mode for mode, _ in chunks] == ["run", "run"]

    def test_word_policy_is_one_chunk(self):
        batch = entries(4)
        chunks = WordGranularity().pack(batch, Stats().counters)
        assert chunks == [("word", batch)]
        assert WordGranularity().pack([], Stats().counters) == []

    def test_page_policy_one_run_per_line(self):
        batch = entries(2, base=0x1000) + entries(2, base=0x2000)
        chunks = PageGranularity().pack(batch, Stats().counters)
        assert [mode for mode, _ in chunks] == ["run", "run"]
        assert sorted(len(chunk) for _, chunk in chunks) == [2, 2]


class TestPersistRun:
    def make_region(self):
        return LogRegion(RegionLayout(threads=2), Stats())

    def test_run_record_is_header_plus_payloads(self):
        region = self.make_region()
        words = region.persist_run(0, entries(3), kind="redo")
        assert len(words) == 4  # 8B header + 3 x 8B payload
        assert region.stats.get("region.run_records") == 1
        assert region.stats.get("region.run_words") == 3
        assert region.stats.get("region.entries.redo") == 3

    def test_run_entries_land_in_thread_area(self):
        region = self.make_region()
        es = entries(3, tid=1)
        region.persist_run(1, es, kind="redo")
        base, size = region.layout.thread_log_area(1)
        for e in es:
            assert base <= e.log_addr < base + size

    def test_run_bytes_beat_word_entries_from_two_words(self):
        # >= 16n bytes as word entries vs 8 + 8n as one run record.
        run_bytes = len(self.make_region().persist_run(0, entries(2))) * 8
        word_requests = self.make_region().persist_entries(
            0, entries(2), kind="redo", per_request=2, request_span=64
        )
        word_bytes = sum(len(req) for req in word_requests) * 8
        assert run_bytes == 24
        assert word_bytes >= 32
        assert run_bytes < word_bytes

    def test_empty_run_is_a_no_op(self):
        region = self.make_region()
        assert region.persist_run(0, [], kind="redo") == {}
        assert region.stats.get("region.run_records") == 0


class TestMediaWaf:
    def make_result(self, log_bytes, data_bytes):
        stats = Stats()
        stats.set("pm.request_bytes.log", log_bytes)
        stats.set("pm.request_bytes.data", data_bytes)
        return RunResult(
            scheme="x", trace_name="t", config=SystemConfig.table2(1), stats=stats
        )

    def test_ratio(self):
        assert self.make_result(160, 64).media_waf == 2.5

    def test_no_traffic_is_true_zero(self):
        assert self.make_result(0, 0).media_waf == 0.0

    def test_log_without_data_is_nan(self):
        assert math.isnan(self.make_result(160, 0).media_waf)

    def test_export_serializes_nan_as_null(self):
        from repro.harness.experiments.presentation import json_cell

        assert json_cell(self.make_result(160, 0).media_waf) is None
        assert json_cell(self.make_result(160, 64).media_waf) == 2.5
