"""Table IV: power consumption of the three design points."""

from repro.analysis import render_table4, table4_power


def test_table4_power(report_sink):
    rows = table4_power()
    report_sink("table4_power", render_table4(rows))
