"""Text rendering of the reproduced figures and tables.

The benchmark harness prints these renderings so that the console output of
``pytest benchmarks/ -s`` contains the same rows and series the paper
reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.utils.stats_utils import safe_divide
from repro.utils.tables import TextTable
from repro.utils.units import bytes_to_human, seconds_to_human

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.characterization import Figure5Row, Figure6Row, Figure7Point
    from repro.analysis.evaluation import AblationPoint, Figure13Row, Figure14Row, Figure15Row
    from repro.analysis.tables import Table1Row, Table2Row, Table4Row, Table5Row
    from repro.core.resources import ModuleResources


def render_figure5(rows: Sequence[Figure5Row]) -> str:
    """Render Figure 5 (CPU-only latency breakdown) as a text table."""
    table = TextTable(
        ["model", "batch", "EMB %", "MLP %", "Other %", "latency", "normalized"],
        title="Figure 5: CPU-only inference latency breakdown",
    )
    for row in rows:
        table.add_row(
            [
                row.model_name,
                row.batch_size,
                100.0 * row.emb_fraction,
                100.0 * row.mlp_fraction,
                100.0 * row.other_fraction,
                f"{row.latency_s * 1e6:.1f} us",
                row.normalized_latency,
            ]
        )
    return table.render()


def render_figure6(rows: Sequence[Figure6Row]) -> str:
    """Render Figure 6 (LLC miss rate and MPKI of EMB vs MLP)."""
    table = TextTable(
        ["model", "batch", "EMB miss %", "MLP miss %", "EMB MPKI", "MLP MPKI"],
        title="Figure 6: LLC miss rate and MPKI (EMB vs MLP)",
    )
    for row in rows:
        table.add_row(
            [
                row.model_name,
                row.batch_size,
                100.0 * row.emb_llc_miss_rate,
                100.0 * row.mlp_llc_miss_rate,
                row.emb_mpki,
                row.mlp_mpki,
            ]
        )
    return table.render()


def render_figure7(points: Sequence[Figure7Point], title_suffix: str = "(a)") -> str:
    """Render Figure 7 (CPU-only effective embedding throughput)."""
    table = TextTable(
        ["model", "batch", "lookups/table", "effective GB/s", "% of DRAM peak"],
        title=f"Figure 7{title_suffix}: CPU-only effective memory throughput",
    )
    for point in points:
        table.add_row(
            [
                point.model_name,
                point.batch_size,
                point.lookups_per_table,
                point.effective_throughput / 1e9,
                100.0 * point.bandwidth_utilization,
            ]
        )
    return table.render()


def render_figure13(rows: Sequence[Figure13Row], title_suffix: str = "(a)") -> str:
    """Render Figure 13 (Centaur gather throughput and improvement)."""
    table = TextTable(
        ["model", "batch", "Centaur GB/s", "CPU-only GB/s", "improvement"],
        title=f"Figure 13{title_suffix}: Centaur effective gather throughput",
    )
    for row in rows:
        table.add_row(
            [
                row.model_name,
                row.batch_size,
                row.centaur_throughput / 1e9,
                row.cpu_throughput / 1e9,
                row.improvement,
            ]
        )
    return table.render()


def render_figure14(rows: Sequence[Figure14Row]) -> str:
    """Render Figure 14 (Centaur latency breakdown and speedup)."""
    table = TextTable(
        ["model", "batch", "IDX %", "EMB %", "DNF %", "MLP %", "Other %", "speedup"],
        title="Figure 14: Centaur latency breakdown and speedup over CPU-only",
    )
    for row in rows:
        table.add_row(
            [
                row.model_name,
                row.batch_size,
                100.0 * row.idx_fraction,
                100.0 * row.emb_fraction,
                100.0 * row.dnf_fraction,
                100.0 * row.mlp_fraction,
                100.0 * row.other_fraction,
                row.speedup,
            ]
        )
    return table.render()


def render_figure15(rows: Sequence[Figure15Row]) -> str:
    """Render Figure 15 (performance and energy-efficiency vs CPU-GPU)."""
    table = TextTable(
        [
            "model",
            "batch",
            "perf CPU-GPU",
            "perf CPU-only",
            "perf Centaur",
            "eff CPU-GPU",
            "eff CPU-only",
            "eff Centaur",
        ],
        title="Figure 15: performance / energy-efficiency normalized to CPU-GPU",
    )
    for row in rows:
        table.add_row(
            [
                row.model_name,
                row.batch_size,
                row.cpu_gpu_performance,
                row.cpu_only_performance,
                row.centaur_performance,
                row.cpu_gpu_efficiency,
                row.cpu_only_efficiency,
                row.centaur_efficiency,
            ]
        )
    return table.render()


def render_ablation(points: Sequence[AblationPoint]) -> str:
    """Render the Section VII link-bandwidth ablation."""
    table = TextTable(
        ["configuration", "link GB/s", "bypass", "latency", "gather GB/s", "speedup vs HARPv2"],
        title="Section VII ablation: CPU<->FPGA bandwidth and cache-bypass path",
    )
    for point in points:
        table.add_row(
            [
                point.label,
                point.link_bandwidth / 1e9,
                point.cache_bypass,
                f"{point.latency_s * 1e6:.1f} us",
                point.gather_throughput / 1e9,
                point.speedup_over_harpv2,
            ]
        )
    return table.render()


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Render Table I (model configurations)."""
    from repro.analysis.paper import CLAIMS_BY_KEY

    table = TextTable(
        ["model", "# tables", "gathers/table", "table size", "MLP size", "paper table", "paper MLP"],
        title="Table I: recommendation model configurations",
    )
    for row in rows:
        paper = [
            CLAIMS_BY_KEY.get(f"table1.{row.model_name}.{column}")
            for column in ("table_bytes", "mlp_bytes")
        ]
        table.add_row(
            [
                row.model_name,
                row.num_tables,
                row.gathers_per_table,
                bytes_to_human(row.table_bytes),
                bytes_to_human(row.mlp_bytes),
                *(bytes_to_human(claim.published) if claim else "-" for claim in paper),
            ]
        )
    return table.render()


def render_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table II (FPGA resource utilization)."""
    from repro.analysis.paper import CLAIMS_BY_KEY

    table = TextTable(
        ["resource", "available (GX1150)", "Centaur (model)", "Centaur (paper)", "utilization %"],
        title="Table II: Centaur FPGA resource utilization",
    )
    for row in rows:
        table.add_row(
            [
                row.resource,
                row.available,
                row.used,
                CLAIMS_BY_KEY[f"table2.{row.resource}"].published,
                100.0 * row.utilization,
            ]
        )
    return table.render()


def render_table3(rows: Sequence[ModuleResources]) -> str:
    """Render Table III (sparse vs dense module resources)."""
    table = TextTable(
        ["group", "module", "LC comb", "LC reg", "block mem bits", "DSP"],
        title="Table III: sparse vs dense FPGA resource usage",
    )
    for row in rows:
        table.add_row(
            [row.group, row.name, row.lc_comb, row.lc_reg, row.block_memory_bits, row.dsps]
        )
    return table.render()


def render_table4(rows: Sequence[Table4Row]) -> str:
    """Render Table IV (power consumption)."""
    from repro.analysis.paper import CLAIMS_BY_KEY

    table = TextTable(
        ["design point", "watts (model)", "watts (paper)"],
        title="Table IV: power consumption",
    )
    for row in rows:
        table.add_row(
            [row.design_point, row.watts, CLAIMS_BY_KEY[f"table4.{row.design_point}"].published]
        )
    return table.render()


def render_table5(rows: Sequence[Table5Row]) -> str:
    """Render Table V (comparison against prior work)."""
    table = TextTable(
        [
            "system",
            "transparent hw",
            "transparent sw",
            "dense DNNs",
            "gathers",
            "small vectors",
            "recsys study",
        ],
        title="Table V: comparison between Centaur and prior work",
    )
    for row in rows:
        table.add_row(
            [
                row.system,
                row.transparent_to_hardware,
                row.transparent_to_software,
                row.accelerates_dense_dnn,
                row.accelerates_gathers,
                row.handles_small_vector_loads,
                row.studies_recommendation,
            ]
        )
    return table.render()


def render_headline(summary: dict) -> List[str]:
    """Render the headline summary as a list of printable lines.

    Each line quotes the paper's value of the same metric from the ledger,
    :data:`repro.analysis.paper.CLAIMS`.
    """
    from repro.analysis.paper import CLAIMS_BY_KEY

    def paper(metric: str) -> str:
        return f"{CLAIMS_BY_KEY[f'headline.{metric}'].published:g}"

    return [
        "Headline results (this reproduction vs the paper's reported ranges):",
        (
            f"  Centaur speedup over CPU-only      : "
            f"{summary['centaur_speedup_min']:.2f}x - {summary['centaur_speedup_max']:.2f}x "
            f"(geomean {summary['centaur_speedup_geomean']:.2f}x; "
            f"paper: {paper('centaur_speedup_min')}x - {paper('centaur_speedup_max')}x)"
        ),
        (
            f"  Centaur energy-efficiency gain     : "
            f"{summary['centaur_efficiency_min']:.2f}x - {summary['centaur_efficiency_max']:.2f}x "
            f"(geomean {summary['centaur_efficiency_geomean']:.2f}x; "
            f"paper: {paper('centaur_efficiency_min')}x - {paper('centaur_efficiency_max')}x)"
        ),
        (
            f"  Gather throughput improvement      : mean "
            f"{summary['gather_bw_improvement_mean']:.1f}x, max "
            f"{summary['gather_bw_improvement_max']:.1f}x, min "
            f"{summary['gather_bw_improvement_min']:.2f}x "
            f"(paper: avg ~{paper('gather_bw_improvement_mean')}x, "
            f"min ~{paper('gather_bw_improvement_min')}x)"
        ),
        (
            f"  CPU-only vs CPU-GPU                : "
            f"{summary['cpu_vs_gpu_performance_geomean']:.2f}x perf, "
            f"{summary['cpu_vs_gpu_efficiency_geomean']:.2f}x energy-eff "
            f"(paper: ~{paper('cpu_vs_gpu_performance_geomean')}x / "
            f"~{paper('cpu_vs_gpu_efficiency_geomean')}x)"
        ),
    ]


def render_experiment(grid, title: str = "Experiment grid") -> str:
    """Render an :class:`~repro.experiment.ExperimentResult` as a text table.

    One row per design point: backend, model, batch, end-to-end latency,
    throughput and energy.  Each row sums its latency breakdown once;
    throughput and energy are the :class:`~repro.results.InferenceResult`
    expressions over that one sum.
    """
    table = TextTable(
        ["backend", "model", "batch", "latency", "samples/s", "energy/batch (mJ)"],
        title=title,
    )
    for (backend, _, _), result in grid:
        latency = result.latency_seconds
        table.add_row(
            [
                backend,
                result.model_name,
                result.batch_size,
                seconds_to_human(latency),
                f"{safe_divide(result.batch_size, latency):,.0f}",
                result.power_watts * latency * 1e3,
            ]
        )
    return table.render()


def render_serving_comparison(
    reports: Mapping[str, object],
    sla_s: float,
    title: str = "Online serving comparison",
) -> str:
    """Render serving outcomes (single-device or cluster) side by side.

    Args:
        reports: Row label -> :class:`~repro.serving.metrics.ServingReport`
            or :class:`~repro.serving.cluster.ClusterReport`.
        sla_s: Latency budget used for the SLA-attainment column.
        title: Table title.
    """
    table = TextTable(
        [
            "configuration",
            "requests",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            f"SLA<{sla_s * 1e3:.0f}ms %",
            "energy/req (mJ)",
            "util %",
        ],
        title=title,
    )
    for label, report in reports.items():
        latency = report.latency
        if len(latency):
            p50, p95, p99 = (value * 1e3 for value in latency.percentiles((50.0, 95.0, 99.0)))
            attainment = 100.0 * latency.sla_attainment(sla_s)
        else:
            # A total outage completed nothing: there is no tail to show.
            p50 = p95 = p99 = attainment = "-"
        table.add_row(
            [
                label,
                report.completed_requests,
                p50,
                p95,
                p99,
                attainment,
                report.energy_per_request_joules * 1e3,
                100.0 * report.device_utilization,
            ]
        )
    return table.render()


def render_profile(profile, title: str = "Engine profile") -> str:
    """Render a :class:`~repro.sim.profile.SimProfile` as a text table.

    One row per event label, heaviest cumulative wall-clock first, plus a
    totals row.  Shares are fractions of the recorded callback time.
    """
    table = TextTable(
        ["event label", "count", "total (s)", "mean (µs)", "share %"],
        title=title,
    )
    for label, count, seconds, mean_us, share in profile.rows():
        table.add_row([label, count, seconds, mean_us, 100.0 * share])
    table.add_row(
        ["(total)", profile.total_events, profile.total_seconds, "", ""]
    )
    return table.render()


def _sharding_row_label(key) -> str:
    """Row label of one sharding-grid key; hides the updates axis when off."""
    backend, workload, shards, strategy, cache, updates = key
    label = f"{backend} | {workload} | x{shards} {strategy} | cache {cache}"
    if updates != "off":
        label += f" | updates {updates}"
    return label


def render_sharding_report(
    reports,
    sla_s: float = 5e-3,
    title: str = "Sharded embedding serving",
) -> str:
    """Render sharded serving outcomes with the scale-out columns.

    Args:
        reports: A sharding-grid :class:`~repro.experiment.ExperimentResult`
            or a ``{row label: ClusterReport}`` mapping whose reports carry
            :class:`~repro.serving.sharded.ShardingStats`.
        sla_s: Latency budget used for the SLA-attainment column.
        title: Table title.
    """
    if hasattr(reports, "items"):
        rows = [(label, report) for label, report in reports.items()]
    else:
        rows = [
            (_sharding_row_label(key), report) for key, report in reports
        ]
    table = TextTable(
        [
            "configuration",
            "shards",
            "hit rate %",
            "imbalance",
            "x-shard MB",
            "gather (us)",
            "p50 (ms)",
            "p99 (ms)",
            f"SLA<{sla_s * 1e3:.0f}ms %",
        ],
        title=title,
    )
    for label, report in rows:
        sharding = report.sharding
        latency = report.latency
        p50, p99 = latency.percentiles((50.0, 99.0))
        table.add_row(
            [
                label,
                sharding.num_shards if sharding else report.num_replicas,
                100.0 * (sharding.hit_rate if sharding else 0.0),
                sharding.lookup_imbalance if sharding else 1.0,
                (sharding.cross_shard_bytes if sharding else 0.0) / 1e6,
                (sharding.mean_gather_s if sharding else 0.0) * 1e6,
                p50 * 1e3,
                p99 * 1e3,
                100.0 * latency.sla_attainment(sla_s),
            ]
        )
    return table.render()


def render_freshness_report(
    reports,
    sla_s: float = 5e-3,
    title: str = "Cache freshness under embedding updates",
) -> str:
    """Render freshness outcomes: pushes, per-cause evictions, staleness.

    Args:
        reports: A sharding-grid :class:`~repro.experiment.ExperimentResult`
            or a ``{row label: ClusterReport}`` mapping whose reports carry
            :class:`~repro.serving.sharded.ShardingStats`.
        sla_s: Latency budget used for the SLA-attainment column.
        title: Table title.
    """
    if hasattr(reports, "items"):
        rows = [(label, report) for label, report in reports.items()]
    else:
        rows = [
            (_sharding_row_label(key), report) for key, report in reports
        ]
    table = TextTable(
        [
            "configuration",
            "mode",
            "pushes",
            "rows pushed",
            "invalidated",
            "refreshed",
            "stale hit %",
            "hit rate %",
            "p99 (ms)",
            f"SLA<{sla_s * 1e3:.0f}ms %",
        ],
        title=title,
    )
    for label, report in rows:
        sharding = report.sharding
        latency = report.latency
        (p99,) = latency.percentiles((99.0,))
        table.add_row(
            [
                label,
                (sharding.update_mode if sharding else None) or "-",
                sharding.update_events if sharding else 0,
                sharding.update_rows if sharding else 0,
                sharding.update_invalidations if sharding else 0,
                sharding.update_refreshes if sharding else 0,
                100.0 * (sharding.stale_hit_rate if sharding else 0.0),
                100.0 * (sharding.hit_rate if sharding else 0.0),
                p99 * 1e3,
                100.0 * latency.sla_attainment(sla_s),
            ]
        )
    return table.render()


def render_workload_catalog(title: str = "Workload catalog") -> str:
    """Render the arrival-process and trace-model catalogs as text tables."""
    from repro.workloads.catalog import ARRIVAL_CATALOG, TRACE_CATALOG

    arrivals = TextTable(
        ["kind", "summary", "example spec"],
        title=f"{title}: arrival processes",
    )
    for entry in ARRIVAL_CATALOG.values():
        arrivals.add_row([entry.kind, entry.summary, entry.example])
    traces = TextTable(
        ["kind", "summary", "example spec"],
        title=f"{title}: trace models",
    )
    for entry in TRACE_CATALOG.values():
        traces.add_row([entry.kind, entry.summary, entry.example])
    return arrivals.render() + "\n\n" + traces.render()


def render_autoscale_timeline(
    report,
    sla_s: float,
    buckets: int = 12,
    bar_width: int = 24,
    title: str = "Autoscale timeline",
) -> str:
    """Replica-count and SLA-attainment timeline of one serving run.

    Buckets the run's completions into equal time windows and renders, per
    window, the commissioned replica count (with a bar), the completions
    and the SLA attainment — the at-a-glance view of whether the fleet
    breathed with the load or gave back the tail.  Works for any
    :class:`~repro.serving.cluster.ClusterReport`; static fleets render a
    constant replica count.  A window in which nothing completed (a gap in
    the load, or a total outage) renders zero completions and ``-``
    attainment, and a window with no commissioned replica an empty bar.
    """
    import numpy as np

    from repro.serving.metrics import pooled_completions, window_latency

    times, latencies = pooled_completions(report.per_replica)
    horizon = float(times[-1]) if times.size else 0.0
    autoscale = getattr(report, "autoscale", None)
    if autoscale is not None:
        horizon = max(horizon, autoscale.timeline[-1][0])
        peak = max(count for _, count in autoscale.timeline)
        header = (
            f"{title}: policy={autoscale.policy}, "
            f"warmup={autoscale.warmup_s * 1e3:.1f}ms, "
            f"replica-seconds={autoscale.replica_seconds:.3f}"
        )
    else:
        peak = report.num_replicas
        header = f"{title}: static fleet of {report.num_replicas}"
    window = horizon / buckets if horizon > 0 else 1.0
    table = TextTable(
        ["window (ms)", "replicas", "fleet", "completions", f"SLA<{sla_s * 1e3:.0f}ms %"],
        title=header,
    )
    starts = [bucket * window for bucket in range(buckets)]
    # Clamp the last bucket to the horizon: buckets * (horizon/buckets)
    # can round below horizon, which would drop the very sample (often the
    # worst tail latency) that defined it.
    ends = starts[1:] + [horizon]
    # A bucket holds the completions with start < time <= end; bucket 0
    # also those at time 0, the earliest a request can complete.
    firsts = np.searchsorted(times, starts, side="right")
    firsts[0] = 0
    lasts = np.searchsorted(times, ends, side="right")
    for start, end, first, last in zip(starts, ends, firsts.tolist(), lasts.tolist()):
        completed = window_latency(latencies[first:last])
        midpoint = (start + end) / 2.0
        replicas = (
            autoscale.replicas_at(midpoint)
            if autoscale is not None
            else report.num_replicas
        )
        cells = round(bar_width * replicas / max(peak, 1))
        table.add_row(
            [
                f"{start * 1e3:7.1f}-{end * 1e3:7.1f}",
                replicas,
                "#" * (max(1, cells) if replicas else 0),
                last - first,
                "-" if completed is None else 100.0 * completed.sla_attainment(sla_s),
            ]
        )
    return table.render()


def _percent(fraction: Optional[float]) -> object:
    """A fraction as a percentage cell; ``-`` when there is nothing to measure."""
    return "-" if fraction is None else 100.0 * fraction


def render_incident_timeline(
    report,
    sla_s: float,
    title: str = "Incident timeline",
) -> str:
    """Render the chaos incidents of one serving run, one row per incident.

    Takes a :class:`~repro.serving.cluster.ClusterReport` whose
    ``incidents`` field is populated (a run served with a fault schedule).
    Each row shows the incident's window, how much traffic it shed or
    re-dispatched, SLA attainment against ``sla_s`` before/during/after
    (``-`` for a window in which nothing completed), and the time-to-recover
    back to the pre-incident p99.
    """
    from repro.chaos.report import measure_incidents

    incidents = getattr(report, "incidents", None)
    if incidents is None:
        raise ValueError(
            "report carries no incident data; serve with a fault schedule "
            "(faults=...) to populate ClusterReport.incidents"
        )
    measures = measure_incidents(report, sla_s)
    header = (
        f"{title}: schedule [{incidents.schedule}], "
        f"sla={sla_s * 1e3:.1f}ms, "
        f"window={measures.window_s * 1e3:.1f}ms, "
        f"horizon={incidents.horizon_s * 1e3:.1f}ms"
    )
    table = TextTable(
        [
            "incident",
            "window (ms)",
            "cleared",
            "shed",
            "redisp",
            "degraded",
            "SLA before %",
            "SLA during %",
            "SLA after %",
            "recover (ms)",
            "recovery rep-s",
            "refill rows",
            "refill (ms)",
        ],
        title=header,
    )
    for windows in measures.windows:
        incident = windows.incident
        label = incident.kind if not incident.target else f"{incident.kind} {incident.target}"
        table.add_row(
            [
                label,
                f"{incident.start_s * 1e3:7.1f}-{incident.end_s * 1e3:7.1f}",
                "yes" if incident.cleared else "no",
                incident.shed_requests,
                incident.redispatched_requests,
                incident.degraded_lookups,
                _percent(windows.sla_before),
                _percent(windows.sla_during),
                _percent(windows.sla_after),
                (
                    f"{windows.time_to_recover_s * 1e3:.1f}"
                    if windows.time_to_recover_s is not None
                    else "-"
                ),
                incident.recovery_replica_seconds,
                incident.refill_rows,
                f"{incident.refill_s * 1e3:.3f}",
            ]
        )
    rendered = table.render()
    worst_sla = measures.worst_sla_during
    worst_ttr = measures.worst_time_to_recover_s
    summary = (
        f"\ntotals: shed={incidents.total_shed}, "
        f"redispatched={incidents.total_redispatched}, "
        f"degraded lookups={incidents.total_degraded_lookups}, "
        f"cache refill={incidents.total_refill_rows} rows "
        f"/ {incidents.total_refill_s * 1e3:.3f}ms, "
        "worst SLA during="
        + (f"{100.0 * worst_sla:.2f}%" if worst_sla is not None else "-")
        + ", worst time-to-recover="
        + (f"{worst_ttr * 1e3:.1f}ms" if worst_ttr is not None else "not recovered")
    )
    notes = [
        f"  note [{incident.kind}@{incident.start_s * 1e3:.1f}ms]: {incident.note}"
        for incident in incidents.incidents
        if incident.note
    ]
    if notes:
        summary += "\n" + "\n".join(notes)
    return rendered + summary


def render_capacity_plan(plan, title: str = "Capacity plan") -> str:
    """Render a :class:`~repro.serving.planner.CapacityPlan` as a table."""
    table = TextTable(
        [
            "backend",
            "replicas",
            "attainment %",
            "p99 (ms)",
            "replica-seconds",
            "energy/req (mJ)",
            "fleets simulated",
        ],
        title=(
            f"{title}: {plan.model_name} under {plan.workload_name}, "
            f"p{plan.target_attainment * 100:.0f} within "
            f"{plan.sla_s * 1e3:.1f}ms"
        ),
    )
    for point in plan.points:
        table.add_row(
            [
                point.backend,
                point.replicas if point.feasible else "infeasible",
                100.0 * point.attainment,
                point.p99_s * 1e3,
                point.replica_seconds,
                point.energy_per_request_joules * 1e3,
                ",".join(str(count) for count in point.evaluated),
            ]
        )
    rendered = table.render()
    best = plan.best()
    if best is not None:
        rendered += (
            f"\nrecommended: {best.replicas}x {best.backend} "
            f"({100.0 * best.attainment:.2f}% within SLA)"
        )
    else:
        rendered += "\nrecommended: none — no backend met the target; raise max_replicas"
    return rendered

