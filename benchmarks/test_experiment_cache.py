"""Experiment API: result-cache effectiveness over the paper's figure suite.

The redesign's contract: every figure slices one shared (backend, model,
batch) grid, so a full regeneration prices each unique design point exactly
once and re-rendering any figure afterwards is pure cache hits.
"""

import time

from repro.analysis import (
    figure5_latency_breakdown,
    figure6_cache_behaviour,
    figure7_effective_throughput,
    figure13_centaur_throughput,
    figure14_centaur_breakdown,
    figure15_comparison,
    headline_summary,
)
from repro.experiment import override_default_cache
from repro.utils.tables import TextTable


def regenerate_figure_suite(system):
    figure5_latency_breakdown(system)
    figure6_cache_behaviour(system)
    figure7_effective_throughput(system)
    figure13_centaur_throughput(system)
    figure14_centaur_breakdown(system)
    figure15_comparison(system)
    headline_summary(system)


def test_full_suite_computes_each_design_point_once(report_sink, system):
    with override_default_cache() as cache:
        cold_start = time.perf_counter()
        regenerate_figure_suite(system)
        cold_s = time.perf_counter() - cold_start

        cold_entries = len(cache)
        assert cold_entries == 108, "3 backends x 6 models x 6 batch sizes"
        assert cache.max_compute_count() == 1, (
            "a full figure regeneration must price each design point exactly once"
        )
        assert cache.hits > 0, "later figures must reuse earlier design points"

        warm_start = time.perf_counter()
        regenerate_figure_suite(system)
        warm_s = time.perf_counter() - warm_start
        assert cache.max_compute_count() == 1, "warm reruns must not recompute"
        assert len(cache) == cold_entries
        assert warm_s < cold_s, "a fully warmed cache must beat the cold run"

        # The persisted report carries only deterministic facts, so every
        # run leaves benchmarks/output/ byte-identical; timings go to stdout.
        table = TextTable(
            ["metric", "value"],
            title="Experiment cache effectiveness (figures 5-7, 13-15 + headline)",
        )
        table.add_row(["unique design points", cold_entries])
        table.add_row(["max computations per point", cache.max_compute_count()])
        table.add_row(["cache hits after one cold + one warm pass", cache.hits])
        report_sink("experiment_cache_effectiveness", table.render())
        print(
            f"cold regeneration: {cold_s * 1e3:.1f} ms, "
            f"warm: {warm_s * 1e3:.1f} ms ({cold_s / warm_s:.1f}x speedup)"
        )
