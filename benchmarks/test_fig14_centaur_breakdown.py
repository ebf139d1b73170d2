"""Figure 14: Centaur's latency breakdown and end-to-end speedup over CPU-only."""

from repro.analysis import figure14_centaur_breakdown, render_figure14
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure14_centaur_breakdown_and_speedup(report_sink, system):
    rows = figure14_centaur_breakdown(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure14_centaur_breakdown", render_figure14(rows))

    assert len(rows) == 36

    # The speedup range, the DLRM(6) average and how each compares with the
    # paper are recorded in repro.analysis.paper; where the best speedup
    # falls is checked over the same sweep in tests/integration.

    # Shape 1: for the embedding-bound models, speedups shrink with batch
    # size as the CPU's gather throughput catches up with the link-bound
    # EB-Streamer (DLRM(6), being MLP-bound, instead gains with batch as the
    # dense accelerator's advantage grows); the only points at (or below)
    # parity are the biggest models at batch >= 64.
    for model in PAPER_MODELS:
        if model.name == "DLRM(6)":
            continue
        by_batch = {row.batch_size: row.speedup for row in rows if row.model_name == model.name}
        assert by_batch[1] > by_batch[128]
    below_parity = [row for row in rows if row.speedup < 1.0]
    assert all(row.batch_size >= 64 for row in below_parity)

    # Shape 2: Centaur's own time is dominated by the EMB stage for the
    # embedding-heavy models, with IDX/DNF as minor contributors.
    for row in rows:
        if row.model_name in {"DLRM(2)", "DLRM(4)", "DLRM(5)"} and row.batch_size >= 16:
            assert row.emb_fraction > 0.4
        assert row.idx_fraction < 0.25
        assert row.dnf_fraction < 0.25
