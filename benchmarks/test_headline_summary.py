"""Headline summary: the abstract's numbers over the full evaluation sweep.

The paper's values, and how far this reproduction sits from each, are the
ledger in :mod:`repro.analysis.paper`, checked by
``tests/analysis/test_paper_ledger.py``.
"""

from repro.analysis import headline_summary, render_headline


def test_headline_summary(report_sink, system):
    summary = headline_summary(system)
    report_sink("headline_summary", "\n".join(render_headline(summary)))
