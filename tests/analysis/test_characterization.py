"""Tests for the Figures 5-7 characterization harness."""

import pytest

from repro.analysis.characterization import (
    figure5_latency_breakdown,
    figure6_cache_behaviour,
    figure7_effective_throughput,
    figure7_lookup_sweep,
    single_table_model,
)
from repro.config import DLRM1, DLRM4, DLRM6, HARPV2_SYSTEM
from repro.errors import SimulationError

MODELS = [DLRM1, DLRM4, DLRM6]
BATCHES = [1, 16, 128]


class TestFigure5:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure5_latency_breakdown(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_row_count(self, rows):
        assert len(rows) == len(MODELS) * len(BATCHES)

    def test_fractions_sum_to_one(self, rows):
        for row in rows:
            assert row.fractions_sum() == pytest.approx(1.0)

    def test_first_row_is_reference(self, rows):
        assert rows[0].normalized_latency == pytest.approx(1.0)

    def test_normalized_latency_spans_an_order_of_magnitude(self, rows):
        """Figure 5's right axis spans roughly 1-15x across models/batches."""
        values = [row.normalized_latency for row in rows]
        assert max(values) > 5.0

    def test_embedding_fraction_high_for_dlrm4(self, rows):
        dlrm4 = [row for row in rows if row.model_name == "DLRM(4)"]
        assert all(row.emb_fraction > 0.5 for row in dlrm4)

    def test_dlrm6_mlp_heavy(self, rows):
        dlrm6_large_batch = [
            row for row in rows if row.model_name == "DLRM(6)" and row.batch_size >= 16
        ]
        assert all(row.mlp_fraction > row.emb_fraction for row in dlrm6_large_batch)


class TestFigure6:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure6_cache_behaviour(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_emb_miss_rate_grows_with_batch(self, rows):
        for model in MODELS:
            series = [row for row in rows if row.model_name == model.name]
            rates = [row.emb_llc_miss_rate for row in sorted(series, key=lambda r: r.batch_size)]
            assert rates == sorted(rates)

    def test_emb_mpki_exceeds_mlp_mpki_for_big_models_at_batch(self, rows):
        for row in rows:
            if row.model_name == "DLRM(4)" and row.batch_size >= 16:
                assert row.emb_mpki > row.mlp_mpki

class TestFigure7:
    def test_throughput_grows_with_batch(self):
        points = figure7_effective_throughput(
            HARPV2_SYSTEM, models=[DLRM4], batch_sizes=[1, 16, 128]
        )
        values = [point.effective_throughput for point in points]
        assert values == sorted(values)

    def test_throughput_far_below_dram_peak(self):
        # How far below is the ledger's fig7 batch-128 claims; here each
        # point's share of the DRAM peak, highest at the largest batch.
        points = figure7_effective_throughput(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)
        peak = HARPV2_SYSTEM.memory.peak_bandwidth
        for point in points:
            assert point.bandwidth_utilization == point.effective_throughput / peak
        busiest = max(points, key=lambda point: point.bandwidth_utilization)
        assert busiest.batch_size == max(BATCHES)
        assert busiest.bandwidth_utilization < 1

    def test_lookup_sweep_monotone_in_lookups(self):
        points = figure7_lookup_sweep(
            HARPV2_SYSTEM, batch_sizes=[16], lookups=(1, 10, 100, 800)
        )
        values = [point.effective_throughput for point in points]
        assert values == sorted(values)

    def test_lookup_sweep_x_axis_counts_total_lookups(self):
        points = figure7_lookup_sweep(HARPV2_SYSTEM, batch_sizes=[8], lookups=(10,))
        assert points[0].lookups_per_table == 80


class TestSingleTableModel:
    def test_shape(self):
        model = single_table_model(DLRM4, lookups_per_table=50)
        assert model.num_tables == 1
        assert model.gathers_per_table == 50
        assert model.tables[0].num_rows == DLRM4.tables[0].num_rows

    def test_validation(self):
        with pytest.raises(SimulationError):
            single_table_model(DLRM4, lookups_per_table=0)
