"""Tests for the DRAM service-time model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import MemoryConfig
from repro.errors import SimulationError
from repro.memsys.dram import DRAMModel


@pytest.fixture()
def dram():
    return DRAMModel(MemoryConfig())


class TestLatencyModel:
    def test_average_latency_interpolates(self, dram):
        memory = dram.config
        all_miss = dram.average_latency(0.0)
        all_hit = dram.average_latency(1.0)
        assert all_miss == pytest.approx(memory.loaded_latency_s)
        assert all_hit == pytest.approx(0.5 * memory.idle_latency_s)
        middle = dram.average_latency(0.5)
        assert all_hit < middle < all_miss

    def test_invalid_hit_rate_rejected(self, dram):
        with pytest.raises(SimulationError):
            dram.average_latency(1.5)


class TestParallelismLimitedBandwidth:
    def test_scales_with_outstanding_requests(self, dram):
        low = dram.parallelism_limited_bandwidth(10)
        high = dram.parallelism_limited_bandwidth(100)
        assert high > low

    def test_capped_at_peak(self, dram):
        assert dram.parallelism_limited_bandwidth(1e6) == pytest.approx(
            dram.config.peak_bandwidth
        )

    def test_ten_mshrs_single_thread_is_far_below_peak(self, dram):
        """The paper's core observation: one latency-bound thread cannot
        come close to saturating the DRAM channels."""
        single_thread = dram.parallelism_limited_bandwidth(10)
        assert single_thread < 0.15 * dram.config.peak_bandwidth

    def test_rejects_non_positive_parallelism(self, dram):
        with pytest.raises(SimulationError):
            dram.parallelism_limited_bandwidth(0)


class TestServiceBurst:
    def test_zero_lines(self, dram):
        stats = dram.service_burst(0, outstanding_lines=10)
        assert stats.service_time_s == 0.0
        assert stats.transferred_bytes == 0

    def test_latency_limited_burst(self, dram):
        stats = dram.service_burst(1000, outstanding_lines=10)
        assert stats.latency_limited
        assert stats.achieved_bandwidth < dram.config.peak_bandwidth

    def test_bandwidth_limited_burst(self, dram):
        stats = dram.service_burst(10_000_000, outstanding_lines=10_000)
        assert not stats.latency_limited
        assert stats.achieved_bandwidth == pytest.approx(dram.config.peak_bandwidth)

    def test_negative_lines_rejected(self, dram):
        with pytest.raises(SimulationError):
            dram.service_burst(-1, outstanding_lines=10)

    @given(
        num_lines=st.integers(min_value=1, max_value=100_000),
        outstanding=st.integers(min_value=1, max_value=1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_service_time_consistency(self, num_lines, outstanding):
        dram = DRAMModel(MemoryConfig())
        stats = dram.service_burst(num_lines, outstanding_lines=outstanding)
        assert stats.service_time_s >= stats.bandwidth_bound_s - 1e-15
        assert stats.service_time_s >= stats.parallelism_bound_s - 1e-15
        assert stats.achieved_bandwidth <= dram.config.peak_bandwidth * (1 + 1e-9)


class TestRowBufferModel:
    def test_gather_row_hit_rate_for_two_line_vectors(self, dram):
        # 128-byte vectors over a multi-GB table: second line of each vector
        # hits the row its first line opened -> 50% row-hit rate.
        rate = dram.row_hit_rate_for_gathers(vector_bytes=128, table_bytes=3_200_000_000)
        assert rate == pytest.approx(0.5)

    def test_single_line_vectors_never_hit(self, dram):
        rate = dram.row_hit_rate_for_gathers(vector_bytes=64, table_bytes=1_000_000_000)
        assert rate == pytest.approx(0.0)

    def test_tiny_table_mostly_hits(self, dram):
        rate = dram.row_hit_rate_for_gathers(vector_bytes=128, table_bytes=4096)
        assert rate >= 0.5

    def test_validation(self, dram):
        with pytest.raises(SimulationError):
            dram.row_hit_rate_for_gathers(0, 100)

    @pytest.mark.parametrize("dim", [16, 32, 64, 128])
    def test_priced_rate_agrees_with_the_simulated_row_buffers(self, dram, dim):
        """Random vector gathers from a 1M-row table, replayed through the
        per-bank open-row simulation, hit at the priced rate (20,000 gathers
        seeded by ``dim`` measured 0.0073, 0.5023, 0.7505 and 0.8752 against
        0, 0.5, 0.75 and 0.875)."""
        rng = np.random.default_rng(dim)
        vector_bytes = 4 * dim
        lines_per_vector = -(-vector_bytes // dram.line_bytes)
        rows = rng.integers(0, 1_000_000, size=20_000)
        lines = (rows[:, None] * lines_per_vector + np.arange(lines_per_vector)).ravel()
        simulated = dram.estimate_row_hit_rate(lines)
        priced = dram.row_hit_rate_for_gathers(vector_bytes, 1_000_000 * vector_bytes)
        assert simulated == pytest.approx(priced, abs=0.02)

    def test_empirical_hit_rate_empty(self, dram):
        assert dram.estimate_row_hit_rate(np.array([])) == 0.0
