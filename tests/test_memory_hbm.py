"""Tests for the HBM channel and subsystem model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.hbm import BurstAccess, HbmChannel, HbmConfig, HbmSubsystem


class TestHbmConfig:
    def test_default_matches_paper_parameters(self):
        config = HbmConfig()
        assert config.peak_bandwidth_bytes_per_s == pytest.approx(8.49e9)
        assert config.clock_hz == pytest.approx(285e6)
        assert config.burst_bytes == 32

    def test_bytes_per_cycle_bounded_by_datapack_width(self):
        config = HbmConfig()
        # 8.49 GB/s at 285 MHz is ~29.8 B/cycle, below the 32 B beat
        assert config.bytes_per_cycle == pytest.approx(8.49e9 / 285e6)
        fast = HbmConfig(peak_bandwidth_bytes_per_s=100e9)
        assert fast.bytes_per_cycle == 32.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HbmConfig(peak_bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            HbmConfig(clock_hz=-1)
        with pytest.raises(ValueError):
            HbmConfig(burst_bytes=0)


class TestHbmChannel:
    def test_zero_bytes_costs_nothing(self):
        channel = HbmChannel(HbmConfig())
        assert channel.transfer_cycles(0) == 0.0

    def test_negative_bytes_rejected(self):
        channel = HbmChannel(HbmConfig())
        with pytest.raises(ValueError):
            channel.transfer_cycles(-1)

    def test_long_transfer_approaches_streaming_rate(self):
        config = HbmConfig()
        channel = HbmChannel(config)
        num_bytes = 1 << 20
        cycles = channel.transfer_cycles(num_bytes)
        streaming = num_bytes / config.bytes_per_cycle
        assert cycles == pytest.approx(streaming, rel=0.01)

    def test_short_bursts_pay_more_overhead(self):
        config = HbmConfig()
        channel = HbmChannel(config)
        long_burst = channel.transfer_cycles(1 << 16, burst_length_beats=2048)
        short_burst = channel.transfer_cycles(1 << 16, burst_length_beats=2)
        assert short_burst > long_burst

    def test_read_write_accounting(self):
        channel = HbmChannel(HbmConfig())
        channel.read(1000)
        channel.write(500)
        assert channel.bytes_read == 1000
        assert channel.bytes_written == 500
        assert channel.total_bytes == 1500
        assert channel.requests == 2

    def test_invalid_burst_length_rejected(self):
        channel = HbmChannel(HbmConfig())
        with pytest.raises(ValueError):
            channel.transfer_cycles(100, burst_length_beats=0)

    @given(st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_in_bytes(self, num_bytes):
        channel = HbmChannel(HbmConfig())
        smaller = channel.transfer_cycles(num_bytes)
        larger = channel.transfer_cycles(num_bytes + 4096)
        assert larger >= smaller


class TestBurstAccess:
    def test_beats_rounds_up(self):
        config = HbmConfig()
        assert BurstAccess(bytes=1).beats(config) == 1
        assert BurstAccess(bytes=32).beats(config) == 1
        assert BurstAccess(bytes=33).beats(config) == 2


class TestHbmSubsystem:
    def test_requires_channels(self):
        with pytest.raises(ValueError):
            HbmSubsystem(HbmConfig(), 0)

    def test_aggregate_bandwidth_scales_with_channels(self):
        one = HbmSubsystem(HbmConfig(), 1)
        eight = HbmSubsystem(HbmConfig(), 8)
        assert eight.aggregate_bandwidth_bytes_per_s == pytest.approx(
            8 * one.aggregate_bandwidth_bytes_per_s)
        assert eight.bytes_per_cycle == pytest.approx(8 * one.bytes_per_cycle)

    def test_striped_read_speedup(self):
        num_bytes = 1 << 22
        one = HbmSubsystem(HbmConfig(), 1).striped_read_cycles(num_bytes)
        eight = HbmSubsystem(HbmConfig(), 8).striped_read_cycles(num_bytes)
        assert one / eight == pytest.approx(8.0, rel=0.01)

    def test_zero_transfer(self):
        subsystem = HbmSubsystem(HbmConfig(), 4)
        assert subsystem.striped_read_cycles(0) == 0.0
        assert subsystem.striped_write_cycles(0) == 0.0
