"""Section VII ablation: CPU<->FPGA link bandwidth and the cache-bypass path.

The paper's discussion argues that upcoming package-level signaling
technologies (hundreds of GB/s) and a cache-bypassing gather path would lift
the EB-Streamer's throughput proportionally.  This benchmark quantifies that
claim with the link-bandwidth sweep and the Fig. 8 bypass configuration.
"""

import pytest

from repro.analysis import ablation_link_bandwidth
from repro.analysis.report import render_ablation
from repro.config import DLRM4


def test_ablation_link_bandwidth_and_bypass(report_sink, system):
    points = ablation_link_bandwidth(
        system,
        DLRM4,
        64,
        (1.0, 2.0, 4.0, 8.0),
        True,
    )
    report_sink("ablation_link_bandwidth", render_ablation(points))

    baseline = points[0]
    assert baseline.speedup_over_harpv2 == pytest.approx(1.0)
    # Gather throughput scales up with link bandwidth until another resource
    # (the reduction lanes at 25.6 GB/s, then the dense stage) takes over.
    scaled = [point for point in points if not point.cache_bypass]
    throughputs = [point.gather_throughput for point in scaled]
    assert throughputs == sorted(throughputs)
    assert scaled[-1].gather_throughput > 2 * baseline.gather_throughput
    assert scaled[-1].speedup_over_harpv2 > 1.5

    # The cache-bypass path (provisioned at DRAM bandwidth) delivers the same
    # class of improvement without scaling the coherent link.
    bypass = points[-1]
    assert bypass.cache_bypass
    assert bypass.gather_throughput > 1.8 * baseline.gather_throughput
    assert bypass.speedup_over_harpv2 > 1.5
