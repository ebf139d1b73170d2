"""Integration checks of the paper's result shapes over the full sweep.

Absolute numbers are model-derived (this is a simulator, not the authors'
HARPv2 testbed), so these tests pin down the *shape* of the results: who
wins and where the crossovers fall.  Each published number, with its
tolerance or recorded deviation, lives in :mod:`repro.analysis.paper` and is
checked by ``tests/analysis/test_paper_ledger.py``.
"""

import pytest

from repro.config import HARPV2_SYSTEM, PAPER_BATCH_SIZES, PAPER_MODELS
from repro.experiment import Experiment
from repro.utils.stats_utils import geometric_mean


@pytest.fixture(scope="module")
def sweep():
    return Experiment(HARPV2_SYSTEM).run()


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
