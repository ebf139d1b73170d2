"""Sensitivity sweeps referenced in the paper's text (Section III-C footnote).

The footnote claims the CPU can exceed 50 GB/s of effective embedding
throughput only with unrealistically wide vectors or enormous batch sizes.
This benchmark regenerates both sweeps and also quantifies the related-work
argument that Centaur (unlike TensorDIMM) does not depend on wide vectors.
"""

from repro.analysis import batch_size_sweep, embedding_dim_sweep, render_sensitivity


def test_embedding_dim_sensitivity(report_sink, system):
    points = embedding_dim_sweep(system, None, (32, 64, 128, 256, 512, 1024), 32)
    report_sink(
        "sensitivity_embedding_dim",
        render_sensitivity(points, "Embedding-vector width sensitivity (batch 32)"),
    )

    narrow, widest = points[0], points[-1]
    # Production-width vectors (32 floats) leave the CPU far below DRAM peak...
    assert narrow.cpu_fraction_of_peak < 0.25
    # ...while >=1024-wide vectors let it exceed 50 GB/s (footnote 2).
    assert widest.cpu_throughput > 50e9
    # Centaur's gather path is width-agnostic: ~68% of the link everywhere.
    assert min(p.centaur_fraction_of_link for p in points) > 0.6
    # Hence Centaur's advantage is concentrated exactly where production
    # models live (narrow vectors), mirroring the TensorDIMM comparison.
    assert narrow.centaur_improvement > widest.centaur_improvement


def test_batch_size_sensitivity(report_sink, system):
    points = batch_size_sweep(system, None, (128, 256, 512, 1024, 2048, 4096))
    report_sink(
        "sensitivity_batch_size",
        render_sensitivity(points, "Batch-size sensitivity (DLRM(4), dim 32)"),
    )

    values = [point.cpu_throughput for point in points]
    assert values == sorted(values)
    # Even far beyond inference-realistic batches, 32-wide gathers stay well
    # under half of the DRAM peak in this model (the paper's footnote quotes
    # >50 GB/s at batch >2048; this CPU model is more conservative there, a
    # deviation recorded in repro.analysis.paper).
    assert all(point.cpu_fraction_of_peak < 0.5 for point in points)
