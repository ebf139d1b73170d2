"""Analysis harness: regenerates every table and figure of the evaluation.

Each ``figureN_*`` / ``tableN_*`` function returns plain dataclasses or
dictionaries so the benchmark scripts can print the same rows/series the
paper reports and the tests can assert on their shape (who wins, where the
crossovers fall).  The paper's own numbers live in :mod:`repro.analysis.paper`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".characterization": (
            "Figure5Row", "Figure6Row", "Figure7Point", "figure5_latency_breakdown",
            "figure6_cache_behaviour", "figure7_effective_throughput", "figure7_lookup_sweep",
        ),
        ".evaluation": (
            "Figure13Row", "Figure14Row", "Figure15Row", "AblationPoint",
            "figure13_centaur_throughput", "figure13_lookup_sweep", "figure14_centaur_breakdown",
            "figure15_comparison", "ablation_link_bandwidth", "headline_summary",
        ),
        ".sensitivity": (
            "SensitivityPoint", "batch_size_sweep", "embedding_dim_sweep", "render_sensitivity",
        ),
        ".tables": (
            "table1_model_configurations", "table2_fpga_utilization", "table3_module_resources",
            "table4_power", "table5_related_work",
        ),
        ".report": (
            "render_autoscale_timeline", "render_incident_timeline", "render_capacity_plan",
            "render_experiment", "render_figure5", "render_figure6", "render_figure7",
            "render_figure13", "render_figure14", "render_figure15", "render_ablation",
            "render_headline", "render_profile", "render_freshness_report",
            "render_serving_comparison", "render_sharding_report", "render_workload_catalog",
            "render_table1", "render_table2", "render_table3", "render_table4", "render_table5",
        ),
    },
)
