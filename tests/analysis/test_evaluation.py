"""Tests for the Figures 13-15 evaluation harness and headline summary."""

import pytest

from repro.analysis.evaluation import (
    ablation_link_bandwidth,
    figure13_centaur_throughput,
    figure13_lookup_sweep,
    figure14_centaur_breakdown,
    figure15_comparison,
    headline_summary,
)
from repro.config import DLRM1, DLRM4, DLRM6, HARPV2_SYSTEM
from repro.errors import SimulationError

MODELS = [DLRM1, DLRM4, DLRM6]
BATCHES = [1, 16, 128]


class TestFigure13:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure13_centaur_throughput(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_row_count(self, rows):
        assert len(rows) == len(MODELS) * len(BATCHES)

    def test_improvement_largest_at_batch_one(self, rows):
        for model in MODELS:
            series = {row.batch_size: row.improvement for row in rows if row.model_name == model.name}
            assert series[1] > series[128]

    def test_crossover_at_large_batch_for_dlrm4(self, rows):
        dlrm4 = {row.batch_size: row for row in rows if row.model_name == "DLRM(4)"}
        assert dlrm4[1].improvement > 1.0
        assert dlrm4[128].improvement < 1.0

    def test_lookup_sweep_grows_with_lookups(self):
        rows = figure13_lookup_sweep(HARPV2_SYSTEM, batch_sizes=[16], lookups=(1, 50, 800))
        values = [row.centaur_throughput for row in rows]
        assert values == sorted(values)


class TestFigure14:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure14_centaur_breakdown(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_fractions_sum_to_one(self, rows):
        for row in rows:
            assert row.fractions_sum() == pytest.approx(1.0)

    def test_small_batches_always_win(self, rows):
        assert all(row.speedup > 1.0 for row in rows if row.batch_size <= 16)

    def test_emb_dominates_centaur_time_for_embedding_heavy_model(self, rows):
        dlrm4_rows = [row for row in rows if row.model_name == "DLRM(4)" and row.batch_size >= 16]
        assert all(row.emb_fraction > 0.4 for row in dlrm4_rows)


class TestFigure15:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure15_comparison(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_normalization_to_cpu_gpu(self, rows):
        assert all(row.cpu_gpu_performance == 1.0 for row in rows)
        assert all(row.cpu_gpu_efficiency == 1.0 for row in rows)

    def test_centaur_is_best_design_point_nearly_everywhere(self, rows):
        wins = sum(
            1
            for row in rows
            if row.centaur_performance >= max(1.0, row.cpu_only_performance) * 0.95
        )
        assert wins >= len(rows) - 2

    def test_centaur_efficiency_exceeds_its_performance(self, rows):
        """Centaur draws the least power, so normalized efficiency > performance."""
        assert all(row.centaur_efficiency > row.centaur_performance for row in rows)


class TestAblation:
    def test_bandwidth_scaling_improves_gather_throughput(self):
        points = ablation_link_bandwidth(
            HARPV2_SYSTEM, model=DLRM4, batch_size=64, bandwidth_scales=(1.0, 2.0, 4.0),
            include_bypass=False,
        )
        throughputs = [point.gather_throughput for point in points]
        assert throughputs == sorted(throughputs)
        assert points[0].speedup_over_harpv2 == pytest.approx(1.0)
        assert points[-1].speedup_over_harpv2 > 1.3

    def test_bypass_point_reported(self):
        points = ablation_link_bandwidth(
            HARPV2_SYSTEM, model=DLRM4, batch_size=32, bandwidth_scales=(1.0,),
            include_bypass=True,
        )
        assert points[-1].cache_bypass
        assert points[-1].gather_throughput > points[0].gather_throughput

    def test_validation(self):
        with pytest.raises(SimulationError):
            ablation_link_bandwidth(HARPV2_SYSTEM, batch_size=0)
        with pytest.raises(SimulationError):
            ablation_link_bandwidth(HARPV2_SYSTEM, bandwidth_scales=(0.0,))


class TestHeadlineSummary:
    @pytest.fixture(scope="class")
    def summary(self):
        return headline_summary(HARPV2_SYSTEM, models=MODELS, batch_sizes=BATCHES)

    def test_contains_all_metrics(self, summary):
        for key in (
            "centaur_speedup_min",
            "centaur_speedup_max",
            "centaur_efficiency_max",
            "gather_bw_improvement_mean",
            "cpu_vs_gpu_performance_geomean",
        ):
            assert key in summary

    def test_headline_shapes(self, summary):
        """Centaur draws the least power, so its best efficiency gain exceeds
        its best speedup."""
        assert summary["centaur_efficiency_max"] > summary["centaur_speedup_max"]
