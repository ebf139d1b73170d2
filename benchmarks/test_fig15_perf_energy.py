"""Figure 15: performance (a) and energy-efficiency (b) of all design points."""

from repro.analysis import figure15_comparison, render_figure15
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure15_performance_and_energy_efficiency(report_sink, system):
    rows = figure15_comparison(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure15_perf_energy", render_figure15(rows))

    assert len(rows) == 36
