"""Tests for the FPGA resource estimator (Tables II and III)."""

import pytest

from repro.config.system import FPGAConfig, FPGAFabricConfig
from repro.core.resources import FPGAResourceModel
from repro.errors import ResourceEstimationError


@pytest.fixture(scope="module")
def model():
    return FPGAResourceModel(FPGAConfig())


class TestTable3Breakdown:
    def test_module_rows_match_paper_order(self, model):
        names = [(module.group, module.name) for module in model.all_modules()]
        assert names == [
            ("Sparse", "Base ptr reg."),
            ("Sparse", "Gather unit"),
            ("Sparse", "Reduction unit"),
            ("Sparse", "SRAM arrays"),
            ("Dense", "MLP unit"),
            ("Dense", "Feat. int. unit"),
            ("Dense", "SRAM arrays"),
            ("Dense", "Weights"),
            ("Others", "Misc."),
        ]

    def test_group_totals_sum_the_module_rows(self, model):
        totals = model.group_totals()
        assert set(totals) == {"Sparse", "Dense", "Others"}
        for group, total in totals.items():
            rows = [module for module in model.all_modules() if module.group == group]
            for column in ("lc_comb", "lc_reg", "block_memory_bits", "dsps"):
                assert getattr(total, column) == sum(getattr(row, column) for row in rows)

    def test_sparse_complex_is_logic_light(self, model):
        """The sparse accelerator is mostly SRAM; the dense one is mostly logic/DSP."""
        totals = model.group_totals()
        assert totals["Sparse"].lc_comb < 0.05 * totals["Dense"].lc_comb
        assert totals["Sparse"].dsps < totals["Dense"].dsps


class TestTable2Aggregate:
    def test_utilization_is_used_over_available(self, model):
        report = model.report()
        fabric = FPGAFabricConfig()
        assert report.alm_utilization == report.alms / fabric.alms
        assert report.block_memory_utilization == report.block_memory_bits / fabric.block_memory_bits
        assert report.ram_block_utilization == report.ram_blocks / fabric.ram_blocks
        assert report.dsp_utilization == report.dsps / fabric.dsps
        assert report.pll_utilization == report.plls / fabric.plls

    def test_design_fits_on_gx1150(self, model):
        report = model.report()
        assert report.alms < FPGAFabricConfig().alms
        assert report.dsps < FPGAFabricConfig().dsps


class TestScaling:
    def test_more_pes_use_more_dsps(self):
        bigger = FPGAResourceModel(FPGAConfig(mlp_pe_rows=6, mlp_pe_cols=6))
        assert bigger.dense_modules()[0].dsps == 32 * 36

    def test_deeper_index_sram_uses_more_memory(self):
        deeper = FPGAResourceModel(FPGAConfig(sparse_index_sram_entries=1_000_000))
        base = FPGAResourceModel(FPGAConfig())
        assert (
            deeper.sparse_modules()[3].block_memory_bits
            > base.sparse_modules()[3].block_memory_bits
        )

    def test_wider_reduction_uses_more_dsps(self):
        wider = FPGAResourceModel(FPGAConfig(reduction_lanes=64))
        assert wider.sparse_modules()[2].dsps == 192

    def test_infeasible_design_rejected(self):
        huge = FPGAConfig(mlp_pe_rows=16, mlp_pe_cols=16)
        with pytest.raises(ResourceEstimationError):
            FPGAResourceModel(huge).report()

    def test_module_alm_and_ram_block_helpers(self, model):
        module = model.dense_modules()[0]
        assert model.module_alms(module) > 0
        assert model.module_ram_blocks(module) > 0
        zero_mem = model.sparse_modules()[0]
        assert model.module_ram_blocks(zero_mem) == 0
