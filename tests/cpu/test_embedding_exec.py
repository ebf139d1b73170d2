"""Tests for the CPU embedding-layer execution model (Figure 7's engine)."""

import pytest

from repro.config import DLRM1, DLRM2, DLRM4, DLRM5, DLRM6
from repro.config.system import CPUConfig, MemoryConfig
from repro.cpu.embedding_exec import EmbeddingExecutionModel
from repro.errors import SimulationError


@pytest.fixture()
def model():
    return EmbeddingExecutionModel(cpu=CPUConfig(), memory=MemoryConfig())


class TestLatencyDecomposition:
    def test_components_sum_to_latency(self, model):
        estimate = model.estimate(DLRM1, 16)
        assert estimate.latency_s == pytest.approx(
            estimate.fixed_s + estimate.dispatch_s + estimate.software_s + estimate.memory_s
        )

    def test_dispatch_scales_with_tables(self, model):
        five_tables = model.estimate(DLRM1, 8).dispatch_s
        fifty_tables = model.estimate(DLRM2, 8).dispatch_s
        assert fifty_tables == pytest.approx(10 * five_tables)

    def test_latency_grows_with_batch(self, model):
        latencies = [model.estimate(DLRM4, batch).latency_s for batch in (1, 16, 128)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_memory_parallelism_tracks_batch(self, model):
        assert model.estimate(DLRM4, 1).outstanding_misses == 10
        assert model.estimate(DLRM4, 128).outstanding_misses == 140

    def test_rejects_bad_batch(self, model):
        with pytest.raises(SimulationError):
            model.estimate(DLRM1, 0)

    def test_negative_overheads_rejected(self):
        with pytest.raises(SimulationError):
            EmbeddingExecutionModel(
                cpu=CPUConfig(), memory=MemoryConfig(), layer_fixed_s=-1e-6
            )


class TestEffectiveThroughput:
    """Shape checks against the paper's Figure 7."""

    def test_throughput_grows_with_batch(self, model):
        throughputs = [
            model.effective_throughput(DLRM4, batch) for batch in (1, 4, 16, 64, 128)
        ]
        assert throughputs == sorted(throughputs)

    def test_throughput_far_below_dram_peak(self, model):
        peak = MemoryConfig().peak_bandwidth
        for config in (DLRM1, DLRM2, DLRM4, DLRM5, DLRM6):
            for batch in (1, 32, 128):
                assert model.effective_throughput(config, batch) < 0.4 * peak

    def test_small_batch_throughput_is_poor(self, model):
        # Figure 7(a)'s batch-1 level is the ledger claim
        # fig7.cpu_gather_batch_1_max; here batch 1 is each model's slowest.
        for config in (DLRM1, DLRM2, DLRM4):
            batch1 = model.effective_throughput(config, 1)
            assert all(batch1 < model.effective_throughput(config, b) for b in (4, 32, 128))

    def test_large_batch_big_model_reaches_high_teens(self, model):
        # The 15-20 GB/s level of DLRM(4)/(5) at batch 128 is the ledger
        # claims fig7.DLRM(4)/(5).cpu_gather_batch_128; here the 80-gather
        # 50-table models outrun the 20-gather one at that batch.
        for config in (DLRM4, DLRM5):
            assert model.effective_throughput(config, 128) > model.effective_throughput(
                DLRM2, 128
            )

    def test_more_lookups_per_table_help(self, model):
        # Figure 7(b): throughput grows with the number of lookups per table.
        assert model.effective_throughput(DLRM3 := DLRM1.with_gathers_per_table(80), 16) > (
            model.effective_throughput(DLRM1, 16)
        )

    def test_dlrm6_lightweight_embedding_has_lowest_throughput(self, model):
        assert model.effective_throughput(DLRM6, 32) < model.effective_throughput(DLRM1, 32)

    def test_traffic_useful_bytes_match_config(self, model):
        estimate = model.estimate(DLRM1, 8)
        assert estimate.traffic.useful_bytes == DLRM1.embedding_bytes_per_sample() * 8
