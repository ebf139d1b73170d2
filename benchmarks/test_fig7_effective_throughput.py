"""Figure 7: CPU-only effective memory throughput for embedding gathers."""

from repro.analysis import figure7_effective_throughput, render_figure7
from repro.analysis.characterization import figure7_lookup_sweep
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure7a_throughput_vs_batch(report_sink, system):
    points = figure7_effective_throughput(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure7a_cpu_effective_throughput", render_figure7(points, "(a)"))

    assert len(points) == 36
    peak = system.memory.peak_bandwidth

    # Shape 1: effective throughput is far below the 77 GB/s DRAM peak.
    assert all(point.effective_throughput < 0.35 * peak for point in points)

    # Shape 2: throughput grows monotonically with batch size (Fig. 7a).
    for model in PAPER_MODELS:
        series = sorted(
            (point for point in points if point.model_name == model.name),
            key=lambda point: point.batch_size,
        )
        values = [point.effective_throughput for point in series]
        assert values == sorted(values)

    # Shape 3: the largest batches reach the mid-to-high teens of GB/s.  The
    # batch-1 ceiling is the ledger's ``fig7.cpu_gather_batch_1_max``; this
    # band's maximum is DLRM(3), which no ledger claim covers.
    batch128 = [p.effective_throughput for p in points if p.batch_size == 128]
    assert 1.3e10 < max(batch128) < 2.2e10


def test_figure7b_throughput_vs_lookups(report_sink, system):
    points = figure7_lookup_sweep(
        system,
        None,
        (1, 16, 128),
        (1, 2, 5, 10, 20, 50, 100, 200, 400, 800),
    )
    report_sink("figure7b_cpu_throughput_vs_lookups", render_figure7(points, "(b)"))

    # Shape: for a fixed batch size, throughput grows monotonically with the
    # number of lookups performed on the single table (Fig. 7b).
    for batch in (1, 16, 128):
        series = sorted(
            (point for point in points if point.batch_size == batch),
            key=lambda point: point.lookups_per_table,
        )
        values = [point.effective_throughput for point in series]
        assert values == sorted(values)
    # Even at 800 lookups x batch 128 the CPU stays well under the DRAM peak.
    assert max(point.effective_throughput for point in points) < 0.4 * system.memory.peak_bandwidth
