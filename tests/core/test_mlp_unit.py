"""Tests for the MLP unit (tiled GEMM over the PE array)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import MLPConfig
from repro.core.mlp_unit import MLPUnit
from repro.dlrm.mlp import MLP
from repro.errors import ConfigurationError, ModelShapeError


@pytest.fixture()
def unit():
    return MLPUnit(pe_rows=4, pe_cols=4, tile_dim=32)


class TestFunctionalGemm:
    def test_matches_dense_gemm_aligned(self, unit):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 96)).astype(np.float32)
        b = rng.standard_normal((96, 128)).astype(np.float32)
        np.testing.assert_allclose(unit.gemm(a, b), a @ b, rtol=1e-4, atol=1e-4)

    def test_matches_dense_gemm_ragged(self, unit):
        """Dimensions that do not divide the 32-wide tiles are zero-padded."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 47)).astype(np.float32)
        b = rng.standard_normal((47, 3)).astype(np.float32)
        np.testing.assert_allclose(unit.gemm(a, b), a @ b, rtol=1e-4, atol=1e-4)

    def test_batch_one_gemv(self, unit):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 13)).astype(np.float32)
        b = rng.standard_normal((13, 32)).astype(np.float32)
        np.testing.assert_allclose(unit.gemm(a, b), a @ b, rtol=1e-4, atol=1e-4)

    def test_shape_validation(self, unit):
        with pytest.raises(ModelShapeError):
            unit.gemm(np.zeros((4, 5)), np.zeros((6, 4)))
        with pytest.raises(ModelShapeError):
            unit.gemm(np.zeros(5), np.zeros((5, 4)))

    def test_run_mlp_matches_software_mlp(self, unit):
        rng = np.random.default_rng(3)
        mlp = MLP.from_config(MLPConfig(layer_dims=(13, 64, 32)), rng)
        inputs = rng.standard_normal((9, 13)).astype(np.float32)
        np.testing.assert_allclose(
            unit.run_mlp(mlp, inputs), mlp.forward(inputs), rtol=1e-4, atol=1e-4
        )

    def test_pes_accumulate_work(self, unit):
        a = np.zeros((64, 64), dtype=np.float32)
        unit.gemm(a, a)
        total_ops = sum(pe.tile_ops for row in unit.pes for pe in row)
        assert total_ops == 2 * 2 * 2  # m_tiles * n_tiles * k_tiles
        unit.reset_counters()
        assert sum(pe.tile_ops for row in unit.pes for pe in row) == 0

    @given(
        m=st.integers(min_value=1, max_value=70),
        k=st.integers(min_value=1, max_value=70),
        n=st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_matches_numpy(self, m, k, n):
        unit = MLPUnit(pe_rows=2, pe_cols=2, tile_dim=16)
        rng = np.random.default_rng(m * 10_000 + k * 100 + n)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        np.testing.assert_allclose(unit.gemm(a, b), a @ b, rtol=1e-3, atol=1e-3)


class TestTiming:
    def test_cycle_count_scales_with_tiles(self, unit):
        small = unit.gemm_timing(m=32, n=32, k=32)
        large = unit.gemm_timing(m=128, n=128, k=128)
        assert large.cycles > small.cycles
        assert large.tile_ops == 4 * 4 * 4

    def test_full_array_utilization(self, unit):
        timing = unit.gemm_timing(m=128, n=128, k=32)
        # 16 output tiles exactly fill the 4x4 array: one wave per K tile.
        assert timing.waves == 1
        assert timing.utilization == pytest.approx(1.0)

    def test_small_gemm_pays_fill_overhead(self, unit):
        timing = unit.gemm_timing(m=1, n=1, k=1)
        assert timing.cycles >= unit.fill_cycles
        assert timing.utilization < 0.01

    def test_latency_seconds(self, unit):
        timing = unit.gemm_timing(m=32, n=32, k=32)
        assert timing.latency_s(200e6) == pytest.approx(timing.cycles / 200e6)

    def test_mlp_timing_covers_every_layer(self, unit):
        timings = unit.mlp_timing((13, 128, 64, 32), batch_size=16)
        assert len(timings) == 3
        assert timings[0].k == 13 and timings[0].n == 128 and timings[0].m == 16

    def test_mlp_cycles_sum_the_per_layer_timings(self, unit):
        # 838 cycles per tile multiply (2 * 32**3 flops at 78.25 per cycle)
        # plus the 64-cycle fill; a GEMM with fewer output tiles than PEs
        # also pays a 32-cycle merge per K tile.
        assert unit.gemm_cycles(1, 1, 1) == 838 + 32 + 64
        assert unit.gemm_cycles(128, 128, 32) == 838 + 64
        assert unit.gemm_cycles(16, 128, 64) == 838 + 2 * 32 + 64
        dims = (13, 128, 64, 32)
        for batch in (1, 16, 333):
            assert unit.mlp_cycles(dims, batch) == sum(
                timing.cycles for timing in unit.mlp_timing(dims, batch)
            )
        with pytest.raises(ModelShapeError):
            unit.mlp_cycles(dims, 0)

    def test_peak_throughput_consistent_with_313_gflops(self, unit):
        """A large, well-aligned GEMM should sustain close to the MLP unit's
        share (16/20) of the 313 GFLOPS aggregate."""
        m = n = k = 512
        timing = unit.gemm_timing(m, n, k)
        seconds = timing.latency_s(200e6)
        achieved = 2 * m * n * k / seconds
        mlp_share = 313e9 * 16 / 20
        assert achieved == pytest.approx(mlp_share, rel=0.05)

    def test_validation(self, unit):
        with pytest.raises(ModelShapeError):
            unit.gemm_timing(0, 1, 1)
        with pytest.raises(ModelShapeError):
            unit.mlp_timing((13, 64), batch_size=0)
        with pytest.raises(ConfigurationError):
            MLPUnit(pe_rows=0)
