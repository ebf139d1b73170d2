"""Table I: recommendation model configurations."""

from repro.analysis import render_table1, table1_model_configurations


def test_table1_model_configurations(report_sink):
    rows = table1_model_configurations()
    report_sink("table1_model_configurations", render_table1(rows))

    # Embedding footprints reproduce the paper exactly; MLP layer shapes are
    # not published, and the sizes they give are recorded in
    # repro.analysis.paper.  DLRM(6) is the MLP-heavy model either way.
    assert rows[5].mlp_bytes > 5 * rows[0].mlp_bytes
