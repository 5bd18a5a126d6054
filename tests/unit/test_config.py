"""Unit tests for repro.common.config (Table II)."""

from dataclasses import replace

import pytest

from repro.common.config import (
    CacheConfig,
    LogBufferConfig,
    MemoryControllerConfig,
    PMConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_table2_l1_geometry(self):
        cfg = SystemConfig.table2().l1
        assert cfg.size_bytes == 32 << 10
        assert cfg.ways == 8
        assert cfg.line_size == 64
        assert cfg.num_sets == 64
        assert cfg.num_lines == 512

    def test_table2_l2_l3_latencies(self):
        cfg = SystemConfig.table2()
        assert cfg.l1.latency_cycles == 4
        assert cfg.l2.latency_cycles == 12
        assert cfg.l3.latency_cycles == 28

    def test_l3_is_8mb_16way(self):
        l3 = SystemConfig.table2().l3
        assert l3.size_bytes == 8 << 20
        assert l3.ways == 16

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=3, line_size=64)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, ways=1)

    def test_rejects_negative_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, ways=-1)


class TestPMConfig:
    def test_defaults_match_table2(self):
        pm = PMConfig()
        assert pm.capacity_bytes == 16 << 30
        assert pm.read_ns == 50.0
        assert pm.write_ns == 150.0

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ConfigError):
            PMConfig(read_ns=0)
        with pytest.raises(ConfigError):
            PMConfig(write_ns=-1)

    def test_rejects_unaligned_onpm_line(self):
        with pytest.raises(ConfigError):
            PMConfig(onpm_line_size=100)

    def test_rejects_zero_banks(self):
        with pytest.raises(ConfigError):
            PMConfig(banks=0)


class TestLogBufferConfig:
    def test_paper_capacity_is_680_bytes(self):
        cfg = LogBufferConfig()
        assert cfg.entries == 20
        assert cfg.bytes_per_entry == 34
        assert cfg.capacity_bytes == 680

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            LogBufferConfig(entries=0)


class TestSystemConfig:
    def test_table2_defaults(self):
        cfg = SystemConfig.table2()
        assert cfg.cores == 8
        assert cfg.freq_ghz == 2.0
        assert cfg.mc.write_queue_entries == 64

    def test_ns_to_cycles_rounds_up(self):
        cfg = SystemConfig.table2()
        assert cfg.ns_to_cycles(50.0) == 100
        assert cfg.ns_to_cycles(150.0) == 300
        assert cfg.ns_to_cycles(0.6) == 2  # 1.2 cycles rounds up

    def test_pm_latency_cycles(self):
        cfg = SystemConfig.table2()
        assert cfg.pm_read_cycles == 100
        assert cfg.pm_write_cycles == 300

    def test_pm_request_cycles_scales_with_words(self):
        cfg = SystemConfig.table2()
        line = cfg.pm_request_cycles(8)
        word = cfg.pm_request_cycles(1)
        assert line > word
        assert word == cfg.pm.bus_overhead_cycles + cfg.pm.bus_beat_cycles

    def test_with_log_buffer_returns_modified_copy(self):
        cfg = SystemConfig.table2()
        tweaked = cfg.with_log_buffer(entries=50)
        assert tweaked.log_buffer.entries == 50
        assert cfg.log_buffer.entries == 20  # original untouched
        assert tweaked.cores == cfg.cores

    def test_with_log_buffer_validates_the_copy(self):
        with pytest.raises(ConfigError, match="at least one entry"):
            SystemConfig.table2().with_log_buffer(entries=0)

    def test_with_log_buffer_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="entrees"):
            SystemConfig.table2().with_log_buffer(entrees=40)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            replace(SystemConfig.table2(), cores=0)

    def test_pm_write_latency_override_in_cycles(self):
        cfg = SystemConfig.table2()
        faster = replace(cfg, pm=replace(cfg.pm, write_ns=75.0))
        assert faster.pm_write_cycles == 150
        assert faster.pm_read_cycles == cfg.pm_read_cycles

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores=0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ConfigError):
            SystemConfig(freq_ghz=0)

    def test_recored_table2(self):
        assert SystemConfig.table2(cores=3).cores == 3


class TestMemoryControllerConfig:
    def test_default_queue_entries(self):
        assert MemoryControllerConfig().write_queue_entries == 64
