"""Figure 5: CPU-only inference latency breakdown (EMB / MLP / Other)."""

import pytest

from repro.analysis import figure5_latency_breakdown, render_figure5
from repro.config import PAPER_BATCH_SIZES, PAPER_MODELS


def test_figure5_cpu_latency_breakdown(report_sink, system):
    rows = figure5_latency_breakdown(system, PAPER_MODELS, PAPER_BATCH_SIZES)
    report_sink("figure5_cpu_latency_breakdown", render_figure5(rows))

    assert len(rows) == 36
    for row in rows:
        assert row.fractions_sum() == pytest.approx(1.0)

    # Shape 1: embedding layers account for the dominant share of time on the
    # 50-table models (the peak share against the paper's is recorded in
    # repro.analysis.paper).
    for row in rows:
        if row.model_name in {"DLRM(2)", "DLRM(4)", "DLRM(5)"}:
            assert row.emb_fraction > 0.5

    # Shape 2: MLP remains a non-trivial contributor at small batch sizes
    # (most visible on the 5-table models, where the embedding stage is short).
    small_batch = [row for row in rows if row.batch_size == 1]
    assert max(row.mlp_fraction for row in small_batch) > 0.3
    for row in small_batch:
        if row.model_name in {"DLRM(1)", "DLRM(3)", "DLRM(6)"}:
            assert row.mlp_fraction > 0.2

    # Shape 3: DLRM(6) (lightweight embedding, heavy MLP) is MLP-dominated.
    for row in rows:
        if row.model_name == "DLRM(6)" and row.batch_size >= 16:
            assert row.mlp_fraction > row.emb_fraction

    # Shape 4: normalized latency grows with batch size for every model.
    for model in PAPER_MODELS:
        series = sorted(
            (row for row in rows if row.model_name == model.name),
            key=lambda row: row.batch_size,
        )
        latencies = [row.latency_s for row in series]
        assert latencies[1:] == sorted(latencies[1:])
