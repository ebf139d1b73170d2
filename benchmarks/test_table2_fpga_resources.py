"""Table II: Centaur FPGA resource utilization on the Arria 10 GX1150."""

from repro.analysis import render_table2, table2_fpga_utilization


def test_table2_fpga_utilization(report_sink):
    rows = table2_fpga_utilization()
    report_sink("table2_fpga_utilization", render_table2(rows))
