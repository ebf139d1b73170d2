"""Table III: sparse vs dense accelerator FPGA resource usage."""

from repro.analysis import render_table3, table3_module_resources


def test_table3_module_resources(report_sink):
    rows = table3_module_resources()
    report_sink("table3_module_resources", render_table3(rows))
