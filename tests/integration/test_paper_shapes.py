"""Integration checks of the paper's headline claims over the full sweep.

Absolute numbers are model-derived (this is a simulator, not the authors'
HARPv2 testbed), so these tests pin down the *shape* of the results: who
wins, by roughly what factor, and where the crossovers fall — exactly the
claims EXPERIMENTS.md records.
"""

import pytest

from repro.analysis import headline_summary
from repro.config import DLRM4, DLRM5, DLRM6, HARPV2_SYSTEM, PAPER_BATCH_SIZES, PAPER_MODELS
from repro.experiment import Experiment
from repro.utils.stats_utils import geometric_mean


@pytest.fixture(scope="module")
def sweep():
    return Experiment(HARPV2_SYSTEM).run()


@pytest.fixture(scope="module")
def summary():
    return headline_summary(HARPV2_SYSTEM)


class TestHeadlineClaims:
    def test_centaur_speedup_band(self, summary):
        """Paper: 1.7-17.2x end-to-end speedup over CPU-only."""
        assert summary["centaur_speedup_max"] > 5.0
        assert summary["centaur_speedup_max"] < 30.0
        assert summary["centaur_speedup_min"] > 0.5

    def test_centaur_energy_efficiency_band(self, summary):
        """Paper: 1.7-19.5x energy-efficiency improvement over CPU-only."""
        assert summary["centaur_efficiency_max"] > summary["centaur_speedup_max"]
        assert summary["centaur_efficiency_max"] < 35.0

    def test_gather_bandwidth_improvement(self, summary):
        """Paper: ~27x average gather-throughput improvement, dipping to
        ~0.67x for DLRM(4)/(5) at batch 128."""
        assert summary["gather_bw_improvement_mean"] > 5.0
        assert summary["gather_bw_improvement_max"] > 20.0
        assert summary["gather_bw_improvement_min"] < 1.0

    def test_cpu_only_vs_cpu_gpu(self, summary):
        """Paper: CPU-only is ~1.1x faster and ~1.9x more energy-efficient."""
        assert 0.8 < summary["cpu_vs_gpu_performance_geomean"] < 1.5
        assert 1.4 < summary["cpu_vs_gpu_efficiency_geomean"] < 2.6


class TestPerModelBehaviour:
    def test_centaur_wins_on_average_for_every_model(self, sweep):
        for model in PAPER_MODELS:
            speedups = [
                sweep.get("Centaur", model.name, batch).speedup_over(
                    sweep.get("CPU-only", model.name, batch)
                )
                for batch in PAPER_BATCH_SIZES
            ]
            assert geometric_mean(speedups) > 1.2, model.name

    def test_dlrm6_average_speedup_is_moderate(self, sweep):
        """Paper: DLRM(6) averages ~6.2x — lower than the embedding-bound
        peaks because its embedding stage is tiny; in this reproduction it
        lands in the 2-8x band and is driven by the dense accelerator."""
        speedups = [
            sweep.get("Centaur", "DLRM(6)", batch).speedup_over(
                sweep.get("CPU-only", "DLRM(6)", batch)
            )
            for batch in PAPER_BATCH_SIZES
        ]
        average = geometric_mean(speedups)
        assert 2.0 < average < 8.0

    def test_biggest_speedups_come_from_embedding_heavy_models_at_small_batch(self, sweep):
        best_key = None
        best_speedup = 0.0
        for model in PAPER_MODELS:
            for batch in PAPER_BATCH_SIZES:
                speedup = sweep.get("Centaur", model.name, batch).speedup_over(
                    sweep.get("CPU-only", model.name, batch)
                )
                if speedup > best_speedup:
                    best_speedup = speedup
                    best_key = (model.name, batch)
        assert best_key[1] == 1
        assert best_key[0] in {"DLRM(2)", "DLRM(4)", "DLRM(5)"}

    def test_crossover_limited_to_large_batches_of_biggest_models(self, sweep):
        """Gather-throughput crossovers (CPU-only wins) only happen at
        batch >= 64 and only for the 50-table/80-gather models."""
        for model in PAPER_MODELS:
            for batch in PAPER_BATCH_SIZES:
                centaur = sweep.get("Centaur", model.name, batch)
                cpu = sweep.get("CPU-only", model.name, batch)
                ratio = (
                    centaur.effective_embedding_throughput
                    / cpu.effective_embedding_throughput
                )
                if ratio < 1.0:
                    assert batch >= 64
                    assert model.name in {"DLRM(3)", "DLRM(4)", "DLRM(5)"}

    def test_centaur_latency_is_monotone_in_batch(self, sweep):
        for model in PAPER_MODELS:
            latencies = [
                sweep.get("Centaur", model.name, batch).latency_seconds
                for batch in PAPER_BATCH_SIZES
            ]
            assert latencies == sorted(latencies)

    def test_power_ordering_follows_table4(self, sweep):
        sample = sweep.get("Centaur", "DLRM(1)", 1)
        cpu = sweep.get("CPU-only", "DLRM(1)", 1)
        gpu = sweep.get("CPU-GPU", "DLRM(1)", 1)
        assert sample.power_watts < cpu.power_watts < gpu.power_watts
