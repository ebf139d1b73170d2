"""Tests for the CPU-only end-to-end runner."""

import pytest

from repro.config import DLRM1, DLRM4, DLRM6, HARPV2_SYSTEM, PAPER_MODELS
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def runner():
    return CPUOnlyRunner(HARPV2_SYSTEM)


class TestRunnerOutputs:
    def test_breakdown_has_figure5_stages(self, runner):
        result = runner.run(DLRM1, 16)
        assert set(result.breakdown.stages) == {"EMB", "MLP", "Other"}
        assert result.design_point == "CPU-only"
        assert result.model_name == "DLRM(1)"
        assert result.batch_size == 16

    def test_fractions_sum_to_one(self, runner):
        result = runner.run(DLRM4, 32)
        assert sum(result.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_power_comes_from_table4(self, runner):
        assert runner.run(DLRM1, 1).power_watts == HARPV2_SYSTEM.power.cpu_only_watts

    def test_traffic_profiles_attached(self, runner):
        result = runner.run(DLRM1, 8)
        assert result.embedding_traffic is not None
        assert result.mlp_traffic is not None
        assert result.embedding_traffic.useful_bytes > 0

    def test_extra_metrics_present(self, runner):
        extra = runner.run(DLRM1, 8).extra
        for key in ("embedding_software_s", "embedding_memory_s", "gemm_efficiency"):
            assert key in extra

    def test_rejects_bad_batch(self, runner):
        with pytest.raises(SimulationError):
            runner.run(DLRM1, 0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(SimulationError):
            CPUOnlyRunner(HARPV2_SYSTEM, other_fixed_s=-1.0)


class TestPaperShapes:
    """Figure 5 shape checks."""

    def test_latency_monotone_in_batch(self, runner):
        for model in (DLRM1, DLRM4, DLRM6):
            latencies = [runner.run(model, batch).latency_seconds for batch in (4, 16, 64, 128)]
            assert latencies == sorted(latencies)

    def test_embedding_dominates_big_table_models(self, runner):
        """DLRM(2)/(4)/(5) spend most of their time in embedding layers."""
        for model in PAPER_MODELS:
            if model.num_tables < 50:
                continue
            for batch in (16, 128):
                assert runner.run(model, batch).breakdown.fraction("EMB") > 0.5

    def test_mlp_significant_at_small_batch(self, runner):
        result = runner.run(DLRM1, 1)
        assert result.breakdown.fraction("MLP") > 0.2

    def test_dlrm6_is_mlp_dominated(self, runner):
        for batch in (16, 128):
            result = runner.run(DLRM6, batch)
            assert result.breakdown.fraction("MLP") > result.breakdown.fraction("EMB")

    def test_effective_throughput_consistent_with_result(self, runner):
        direct = runner.effective_embedding_throughput(DLRM4, 32)
        via_result = runner.run(DLRM4, 32).effective_embedding_throughput
        assert direct == pytest.approx(via_result, rel=1e-9)

    def test_throughput_samples_per_second_improves_with_batch(self, runner):
        single = runner.run(DLRM1, 1).throughput_samples_per_second
        batched = runner.run(DLRM1, 128).throughput_samples_per_second
        assert batched > single
