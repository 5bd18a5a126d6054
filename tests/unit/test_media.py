"""Unit tests for the PM media model (data-comparison-write)."""

import pytest

from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.designs.scheme import SchemeRegistry
from repro.mem.media import PMMedia
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.workloads import build_workload


def make_media():
    return PMMedia(Stats())


class TestReads:
    def test_unwritten_words_read_zero(self):
        assert make_media().read_word(0x1000) == 0

    def test_read_words_batch(self):
        media = make_media()
        media.write_line({0x1000: 5})
        assert media.read_words([0x1000, 0x1008]) == {0x1000: 5, 0x1008: 0}


class TestDataComparisonWrite:
    def test_changed_write_counts_one_sector(self):
        media = make_media()
        assert media.write_line({0x1000: 1, 0x1008: 2}) == 1
        assert media.stats.get("media.sector_writes") == 1
        assert media.stats.get("media.word_writes") == 2

    def test_fully_redundant_write_is_free(self):
        media = make_media()
        media.write_line({0x1000: 1})
        sectors = media.write_line({0x1000: 1})
        assert sectors == 0
        assert media.stats.get("media.redundant_line_writes") == 1
        assert media.stats.get("media.sector_writes") == 1

    def test_partially_redundant_write_counts_changed_sectors_only(self):
        media = make_media()
        media.write_line({0x1000: 1, 0x1040: 2})  # two sectors
        sectors = media.write_line({0x1000: 1, 0x1040: 3})  # one changes
        assert sectors == 1

    def test_writing_zero_over_unwritten_is_redundant(self):
        media = make_media()
        assert media.write_line({0x2000: 0}) == 0

    def test_sector_granularity_is_64_bytes(self):
        media = make_media()
        # 4 words spanning 2 sectors inside one 256B on-PM line
        sectors = media.write_line({0x100: 1, 0x108: 2, 0x140: 3, 0x148: 4})
        assert sectors == 2


class TestInspection:
    def test_snapshot_excludes_zeros(self):
        media = make_media()
        media.write_line({0x1000: 5})
        media.write_line({0x1000: 0})
        assert media.snapshot() == {}

    def test_nonzero_words(self):
        media = make_media()
        media.write_line({0x1000: 5, 0x1008: 0})
        assert media.nonzero_words() == 1

    def test_diff(self):
        a, b = make_media(), make_media()
        a.write_line({0x1000: 1})
        b.write_line({0x1000: 2, 0x1008: 3})
        diff = a.diff(b)
        assert diff == {0x1000: (1, 2), 0x1008: (0, 3)}

    def test_diff_empty_when_equal(self):
        a, b = make_media(), make_media()
        a.write_line({0x1000: 1})
        b.write_line({0x1000: 1})
        assert a.diff(b) == {}

    def test_load_image_skips_accounting(self):
        media = make_media()
        media.load_image({0x1000: 42})
        assert media.read_word(0x1000) == 42
        assert media.stats.get("media.sector_writes") == 0

    def test_contains_checks_word(self):
        media = make_media()
        media.write_line({0x1000: 1})
        assert 0x1000 in media
        assert 0x1004 in media  # same word
        assert 0x1008 not in media


class TestWearProfile:
    def test_profile_counts_changed_sectors(self):
        media = make_media()
        media.write_line({0x1000: 1})
        media.write_line({0x1000: 2})
        media.write_line({0x2000: 3})
        profile = media.wear_profile()
        assert profile[0x1000] == 2
        assert profile[0x2000] == 1

    def test_redundant_writes_cost_no_wear(self):
        media = make_media()
        media.write_line({0x1000: 1})
        media.write_line({0x1000: 1})
        assert media.wear_profile()[0x1000] == 1

    def test_load_image_causes_no_wear(self):
        media = make_media()
        media.load_image({0x1000: 5})
        assert media.wear_profile() == {}

    def test_profile_keys_are_sector_addresses(self):
        media = make_media()
        media.write_line({0x1008: 1, 0x1038: 2})
        media.write_line({0x1040: 3})
        assert media.wear_profile() == {0x1000: 1, 0x1040: 1}


class TestWearAfterRun:
    """The wear profile a whole run leaves behind (what
    ``examples/endurance.py`` turns into relative PM lifetime)."""

    def test_fresh_system_has_no_wear(self):
        assert System(SystemConfig.table2(1)).pm.media.wear_profile() == {}

    @pytest.mark.parametrize("scheme", ["base", "fwb", "morlog", "lad", "silo"])
    def test_profile_total_matches_media_writes(self, scheme):
        trace = build_workload("ycsb", threads=2, transactions=40)
        system = System(SystemConfig.table2(2))
        result = TransactionEngine(
            system, SchemeRegistry.create(scheme, system), trace
        ).run()
        wear = sorted(system.pm.media.wear_profile().values(), reverse=True)
        assert sum(wear) == result.media_writes > 0
        assert wear[0] >= sum(wear) / len(wear)
        assert all(addr % 64 == 0 for addr in system.pm.media.wear_profile())
