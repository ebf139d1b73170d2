"""Tests for the text rendering of figures and tables."""

import pytest

from repro.analysis import (
    ablation_link_bandwidth,
    figure5_latency_breakdown,
    figure6_cache_behaviour,
    figure7_effective_throughput,
    figure13_centaur_throughput,
    figure14_centaur_breakdown,
    figure15_comparison,
    headline_summary,
    render_ablation,
    render_figure5,
    render_figure6,
    render_figure7,
    render_figure13,
    render_figure14,
    render_figure15,
    render_headline,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    table1_model_configurations,
    table2_fpga_utilization,
    table3_module_resources,
    table4_power,
    table5_related_work,
)
from repro.analysis.paper import CLAIMS_BY_KEY
from repro.config import DLRM1, HARPV2_SYSTEM


@pytest.fixture(scope="module")
def small_kwargs():
    return {"models": [DLRM1], "batch_sizes": [1, 16]}


class TestFigureRendering:
    def test_figure5(self, small_kwargs):
        text = render_figure5(figure5_latency_breakdown(HARPV2_SYSTEM, **small_kwargs))
        assert "Figure 5" in text and "DLRM(1)" in text and "EMB %" in text

    def test_figure6(self, small_kwargs):
        text = render_figure6(figure6_cache_behaviour(HARPV2_SYSTEM, **small_kwargs))
        assert "MPKI" in text

    def test_figure7(self, small_kwargs):
        text = render_figure7(figure7_effective_throughput(HARPV2_SYSTEM, **small_kwargs))
        assert "effective GB/s" in text

    def test_figure13(self, small_kwargs):
        text = render_figure13(figure13_centaur_throughput(HARPV2_SYSTEM, **small_kwargs))
        assert "Centaur GB/s" in text

    def test_figure14(self, small_kwargs):
        text = render_figure14(figure14_centaur_breakdown(HARPV2_SYSTEM, **small_kwargs))
        assert "speedup" in text and "IDX %" in text

    def test_figure15(self, small_kwargs):
        text = render_figure15(figure15_comparison(HARPV2_SYSTEM, **small_kwargs))
        assert "perf Centaur" in text

    def test_ablation(self):
        points = ablation_link_bandwidth(
            HARPV2_SYSTEM, model=DLRM1, batch_size=16, bandwidth_scales=(1.0, 2.0)
        )
        text = render_ablation(points)
        assert "cache-bypass" in text

    def test_headline(self, small_kwargs):
        """Each line quotes the paper's values of its metrics from the ledger."""
        lines = render_headline(headline_summary(HARPV2_SYSTEM, **small_kwargs))

        def paper(metric):
            return f"{CLAIMS_BY_KEY[f'headline.{metric}'].published:g}"

        expected = [
            f"paper: {paper('centaur_speedup_min')}x - {paper('centaur_speedup_max')}x)",
            f"paper: {paper('centaur_efficiency_min')}x - {paper('centaur_efficiency_max')}x)",
            f"(paper: avg ~{paper('gather_bw_improvement_mean')}x, "
            f"min ~{paper('gather_bw_improvement_min')}x)",
            f"(paper: ~{paper('cpu_vs_gpu_performance_geomean')}x / "
            f"~{paper('cpu_vs_gpu_efficiency_geomean')}x)",
        ]
        assert "speedup" in lines[1]
        assert len(lines) == 1 + len(expected)
        for line, paper_text in zip(lines[1:], expected):
            assert line.endswith(paper_text)
            assert line.count("paper") == 1


class TestTableRendering:
    def test_table1(self):
        text = render_table1(table1_model_configurations())
        assert "Table I" in text and "DLRM(5)" in text and "3.20 GB" in text

    def test_table2(self):
        text = render_table2(table2_fpga_utilization())
        assert "Table II" in text and "ALM" in text

    def test_table3(self):
        text = render_table3(table3_module_resources())
        assert "Table III" in text and "Reduction unit" in text

    def test_table4(self):
        text = render_table4(table4_power())
        assert "Table IV" in text and "74" in text

    def test_table5(self):
        text = render_table5(table5_related_work())
        assert "Table V" in text and "TensorDIMM" in text
