"""Tests for the Table I and hardware presets."""

import pytest

from repro.config import (
    DLRM1,
    DLRM3,
    DLRM5,
    DLRM6,
    HARPV2_SYSTEM,
    PAPER_BATCH_SIZES,
    PAPER_MODELS,
    dlrm_preset,
)


class TestTable1Presets:
    def test_six_models_in_order(self):
        assert len(PAPER_MODELS) == 6
        assert [m.name for m in PAPER_MODELS] == [f"DLRM({i})" for i in range(1, 7)]

    def test_embedding_dim_is_32_everywhere(self):
        assert all(m.embedding_dim == 32 for m in PAPER_MODELS)

    def test_dlrm6_has_the_heaviest_mlp(self):
        assert DLRM6.mlp_parameter_bytes > DLRM1.mlp_parameter_bytes

    def test_batch_sweep_matches_paper(self):
        assert PAPER_BATCH_SIZES == (1, 4, 16, 32, 64, 128)


class TestPresetLookup:
    def test_lookup_by_index(self):
        assert dlrm_preset(3) is DLRM3

    def test_lookup_by_name(self):
        assert dlrm_preset("DLRM(5)") is DLRM5

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError):
            dlrm_preset(0)
        with pytest.raises(KeyError):
            dlrm_preset(7)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            dlrm_preset("DLRM(99)")


class TestHardwarePresets:
    def test_harpv2_system_is_consistent(self):
        assert HARPV2_SYSTEM.cpu.num_cores == 14
        assert HARPV2_SYSTEM.memory.peak_bandwidth == pytest.approx(77e9)
        assert HARPV2_SYSTEM.link.theoretical_bandwidth == pytest.approx(28.8e9)
        assert HARPV2_SYSTEM.fpga.frequency_hz == pytest.approx(200e6)
        assert HARPV2_SYSTEM.power.centaur_watts == 74.0

    def test_link_slower_than_dram(self):
        # The HARPv2 link is the gather bottleneck relative to DRAM bandwidth.
        assert HARPV2_SYSTEM.link.effective_bandwidth < HARPV2_SYSTEM.memory.peak_bandwidth

    def test_embedding_tables_do_not_fit_in_gpu_memory(self):
        # The reason the CPU-GPU design keeps tables in host memory (Section IV-A).
        assert DLRM5.embedding_table_bytes < HARPV2_SYSTEM.gpu.memory_capacity_bytes
        total = sum(m.embedding_table_bytes for m in PAPER_MODELS)
        assert total > HARPV2_SYSTEM.gpu.memory_capacity_bytes / 8
