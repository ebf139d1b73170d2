"""Figure 6: LLC miss rate (a) and MPKI (b) of embedding vs MLP layers."""

from repro.analysis import figure6_cache_behaviour, render_figure6
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure6_llc_miss_rate_and_mpki(report_sink, system):
    rows = figure6_cache_behaviour(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure6_llc_mpki", render_figure6(rows))

    assert len(rows) == 36

    # Shape 1: embedding-layer LLC miss rate is highly batch-sensitive and
    # grows with batch size (Fig. 6a).  Growth is allowed to flatten at the
    # largest batches, where intra-batch row reuse starts to kick in.
    for model in PAPER_MODELS:
        series = sorted(
            (row for row in rows if row.model_name == model.name),
            key=lambda row: row.batch_size,
        )
        rates = [row.emb_llc_miss_rate for row in series]
        assert all(later >= earlier - 0.01 for earlier, later in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]

    # Shape 2: the embedding layer's MPKI exceeds the MLP's at large batch
    # sizes.  The peak miss rate, the peak MPKI and the MLP miss-rate bound
    # are paper claims in repro.analysis.paper.
    for row in rows:
        if row.batch_size >= 64 and row.model_name in {"DLRM(4)", "DLRM(5)"}:
            assert row.emb_mpki > row.mlp_mpki
