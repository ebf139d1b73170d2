"""Tests for the MLP unit (tiled GEMM over the PE array)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.paper import CLAIMS_BY_KEY
from repro.core.mlp_unit import MLPUnit
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

    def test_pes_accumulate_work(self, unit):
        a = np.zeros((64, 64), dtype=np.float32)
        unit.gemm(a, a)
        total_ops = sum(pe.tile_ops for row in unit.pes for pe in row)
        assert total_ops == 2 * 2 * 2  # m_tiles * n_tiles * k_tiles
        unit.reset_counters()
        assert sum(pe.tile_ops for row in unit.pes for pe in row) == 0

    def test_output_tiles_map_round_robin_onto_the_array(self, unit):
        for m_tile in range(6):
            for n_tile in range(6):
                pe = unit._pe(m_tile, n_tile)
                assert unit.pes[m_tile % 4][n_tile % 4] is pe

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
        small = unit.gemm_cycles(m=32, n=32, k=32)
        large = unit.gemm_cycles(m=128, n=128, k=128)
        assert large > small
        # 4 x 4 x 4 tile multiplies over 16 PEs: four waves, no K split.
        assert large == 4 * unit.cycles_per_tile_op + unit.fill_cycles

    def test_full_array_utilization(self, unit):
        m, n, k = 128, 128, 32
        cycles = unit.gemm_cycles(m, n, k)
        # 16 output tiles exactly fill the 4x4 array: one wave per K tile.
        assert cycles == unit.cycles_per_tile_op + unit.fill_cycles
        flops_per_wave = unit.num_pes * unit.pes[0][0].flops_per_tile_op
        assert 2 * m * n * k / flops_per_wave == pytest.approx(1.0)

    def test_small_gemm_pays_fill_overhead(self, unit):
        cycles = unit.gemm_cycles(m=1, n=1, k=1)
        assert cycles >= unit.fill_cycles
        peak_flops_per_cycle = unit.num_pes * unit.pes[0][0].flops_per_cycle
        assert 2 / cycles < 0.01 * peak_flops_per_cycle

    def test_mlp_cycles_sum_the_per_layer_gemms(self, unit):
        # 838 cycles per tile multiply (2 * 32**3 flops at 78.25 per cycle)
        # plus the 64-cycle fill; a GEMM with fewer output tiles than PEs
        # also pays a 32-cycle merge per K tile.
        assert unit.gemm_cycles(1, 1, 1) == 838 + 32 + 64
        assert unit.gemm_cycles(128, 128, 32) == 838 + 64
        assert unit.gemm_cycles(16, 128, 64) == 838 + 2 * 32 + 64
        # Each layer is an [batch, in] @ [in, out] GEMM.
        assert unit.mlp_cycles((13, 128, 64, 32), batch_size=16) == (
            unit.gemm_cycles(16, 128, 13)
            + unit.gemm_cycles(16, 64, 128)
            + unit.gemm_cycles(16, 32, 64)
        )
        dims = (13, 128, 64, 32)
        for batch in (1, 16, 333):
            assert unit.mlp_cycles(dims, batch) == sum(
                unit.gemm_cycles(batch, out_dim, in_dim)
                for in_dim, out_dim in zip(dims[:-1], dims[1:])
            )

    def test_peak_throughput_consistent_with_313_gflops(self, unit):
        """A large, well-aligned GEMM should sustain close to the MLP unit's
        share (16/20) of the paper's 313 GFLOPS aggregate."""
        m = n = k = 512
        seconds = unit.gemm_cycles(m, n, k) / 200e6
        achieved = 2 * m * n * k / seconds
        mlp_share = CLAIMS_BY_KEY["dense.peak_flops"].published * 16 / 20
        assert achieved == pytest.approx(mlp_share, rel=0.05)

    @pytest.mark.parametrize(
        "shape", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, -1), (-32, 32, 32)]
    )
    def test_gemm_cycles_rejects_non_positive_dims(self, unit, shape):
        with pytest.raises(ModelShapeError):
            unit.gemm_cycles(*shape)

    # 838 cycles per tile multiply, 64 fill cycles, and a 32-cycle merge per
    # K tile while the output tiles leave part of the 16-PE array idle.
    @pytest.mark.parametrize(
        ("m", "n", "k", "cycles"),
        [
            (1, 1, 1, 838 + 32 + 64),  # one padded tile
            (33, 32, 32, 838 + 32 + 64),  # two output tiles share one wave
            (16, 128, 64, 838 + 2 * 32 + 64),  # K split over idle PEs
            (1, 32, 2048, 4 * 838 + 64 * 32 + 64),  # 64 K tiles in 4 waves
            (128, 128, 32, 838 + 64),  # output tiles exactly fill the array
            (128, 128, 128, 4 * 838 + 64),  # output-stationary K walk
            (256, 128, 32, 2 * 838 + 64),  # two waves of output tiles
            (512, 512, 512, 256 * 838 + 64),  # 4096 tile multiplies
        ],
    )
    def test_gemm_cycles_per_dataflow_regime(self, unit, m, n, k, cycles):
        assert unit.gemm_cycles(m, n, k) == cycles

    def test_validation(self, unit):
        with pytest.raises(ModelShapeError):
            unit.mlp_cycles((13, 64), batch_size=0)
        with pytest.raises(ConfigurationError):
            MLPUnit(pe_rows=0)
