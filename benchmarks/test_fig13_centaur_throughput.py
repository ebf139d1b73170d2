"""Figure 13: Centaur's effective gather throughput and improvement vs CPU-only."""

from repro.analysis import figure13_centaur_throughput, figure13_lookup_sweep, render_figure13
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure13a_centaur_gather_throughput(report_sink, system):
    rows = figure13_centaur_throughput(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure13a_centaur_gather_throughput", render_figure13(rows, "(a)"))

    assert len(rows) == 36


def test_figure13b_throughput_vs_lookups(report_sink, system):
    rows = figure13_lookup_sweep(
        system,
        None,
        (1, 16, 128),
        (1, 2, 5, 10, 20, 50, 100, 200, 400, 800),
    )
    report_sink("figure13b_centaur_throughput_vs_lookups", render_figure13(rows, "(b)"))

    # Shape: Centaur's effective throughput ramps up much faster with the
    # number of gathers than the CPU's (compare Figure 7b): a few tens of
    # lookups already reach multi-GB/s rates.
    mid = [
        row
        for row in rows
        if row.batch_size == 16 and row.lookups_per_table == 50 * 16
    ]
    assert mid and mid[0].centaur_throughput > 5e9
