"""Tests for the Centaur performance runner (Figures 13-14 engine)."""

import pytest

from repro.config import (
    DLRM1,
    DLRM2,
    DLRM4,
    DLRM5,
    DLRM6,
    HARPV2_SYSTEM,
    PAPER_MODELS,
)
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def runner():
    return CentaurRunner(HARPV2_SYSTEM)


@pytest.fixture(scope="module")
def cpu_runner():
    return CPUOnlyRunner(HARPV2_SYSTEM)


class TestRunnerOutputs:
    def test_breakdown_has_figure14_stages(self, runner):
        result = runner.run(DLRM1, 16)
        assert set(result.breakdown.stages) == {"IDX", "EMB", "DNF", "MLP", "Other"}
        assert result.design_point == "Centaur"

    def test_fractions_sum_to_one(self, runner):
        assert sum(runner.run(DLRM4, 64).breakdown.fractions().values()) == pytest.approx(1.0)

    def test_power_matches_table4(self, runner):
        assert runner.run(DLRM1, 1).power_watts == 74.0

    def test_extra_metrics_present(self, runner):
        extra = runner.run(DLRM1, 4).extra
        for key in ("gather_bandwidth", "gather_s", "dense_bottom_s", "dense_top_s"):
            assert key in extra

    def test_rejects_bad_inputs(self, runner):
        with pytest.raises(SimulationError):
            runner.run(DLRM1, 0)
        with pytest.raises(SimulationError):
            CentaurRunner(HARPV2_SYSTEM, other_fixed_s=-1.0)

    def test_reused_runner_prices_like_a_fresh_one(self, runner):
        for model, batch in ((DLRM1, 1), (DLRM4, 256), (DLRM6, 16)):
            runner.run(model, batch)
        fresh = CentaurRunner(HARPV2_SYSTEM)
        assert runner.run(DLRM2, 64).to_dict() == fresh.run(DLRM2, 64).to_dict()


class TestPaperShapes:
    def test_embedding_dominates_for_embedding_heavy_models(self, runner):
        for model in (DLRM2, DLRM4, DLRM5):
            result = runner.run(model, 64)
            assert result.breakdown.fraction("EMB") > 0.5

    def test_speedup_largest_at_small_batch(self, runner, cpu_runner):
        speedups = {}
        for batch in (1, 128):
            centaur = runner.run(DLRM4, batch)
            cpu = cpu_runner.run(DLRM4, batch)
            speedups[batch] = centaur.speedup_over(cpu)
        assert speedups[1] > speedups[128]
        assert speedups[1] > 5.0

    def test_centaur_wins_at_small_and_medium_batches(self, runner, cpu_runner):
        for model in PAPER_MODELS:
            for batch in (1, 4, 16):
                centaur = runner.run(model, batch)
                cpu = cpu_runner.run(model, batch)
                assert centaur.speedup_over(cpu) > 1.0, (model.name, batch)

    def test_cpu_overtakes_gather_throughput_only_at_large_batch_big_models(
        self, runner, cpu_runner
    ):
        """Section VI-B: the EB-Streamer falls behind CPU-only gather
        throughput only for DLRM(4)/(5)-class models at batch 128."""
        for model in (DLRM4, DLRM5):
            small_batch_ratio = runner.effective_embedding_throughput(
                model, 1
            ) / cpu_runner.effective_embedding_throughput(model, 1)
            large_batch_ratio = runner.effective_embedding_throughput(
                model, 128
            ) / cpu_runner.effective_embedding_throughput(model, 128)
            assert small_batch_ratio > 1.0
            assert large_batch_ratio < 1.0

    def test_dlrm6_benefits_from_dense_accelerator(self, runner, cpu_runner):
        """DLRM(6) is MLP-bound; its gains come from the dense complex."""
        centaur = runner.run(DLRM6, 64)
        cpu = cpu_runner.run(DLRM6, 64)
        assert centaur.speedup_over(cpu) > 2.0
        assert centaur.breakdown.get("MLP") < cpu.breakdown.get("MLP")

    def test_energy_efficiency_exceeds_speedup(self, runner, cpu_runner):
        """Centaur draws less power than CPU-only, so efficiency > speedup."""
        centaur = runner.run(DLRM4, 16)
        cpu = cpu_runner.run(DLRM4, 16)
        assert centaur.energy_efficiency_over(cpu) > centaur.speedup_over(cpu)

    def test_idx_and_dnf_are_minor_contributors(self, runner):
        for model in PAPER_MODELS:
            result = runner.run(model, 32)
            assert result.breakdown.fraction("IDX") < 0.2
            assert result.breakdown.fraction("DNF") < 0.2
