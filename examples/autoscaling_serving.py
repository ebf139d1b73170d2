"""Autoscaling vs. static provisioning under a day-curve workload.

PR 3 gave the workload subsystem diurnal arrivals; this example shows why
they matter.  A fleet statically provisioned for the traffic peak meets its
SLA all day but pays for idle replicas all night; a fleet provisioned for
the mean gives the SLA back at every crest.  The autoscaler threads that
needle: it holds the p99 SLA of the peak-provisioned fleet while paying for
a fraction of its replica-hours.

The script:

1. sizes the peak fleet with a :class:`~repro.serving.CapacityPlanner`
   (minimal replicas meeting the p99 target at the *peak* rate),
2. serves one diurnal cycle on that static fleet,
3. serves the same cycle on an elastic fleet under each autoscaling policy,
4. compares SLA attainment, replica-seconds and energy side by side, and
   prints the winning policy's replica-count timeline.

Run with:  python examples/autoscaling_serving.py
"""

from __future__ import annotations

from repro import get_backend
from repro.analysis import render_autoscale_timeline, render_serving_comparison
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import (
    CapacityPlanner,
    EWMAPolicy,
    Fleet,
    FleetSpec,
    LeastLoadedDispatcher,
    QueueDepthPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    TimeoutBatching,
)
from repro.utils import TextTable
from repro.workloads import DiurnalArrivals, PoissonArrivals, Workload

SLA_S = 5e-3
TROUGH_QPS, PEAK_QPS = 4_000.0, 40_000.0
PERIOD_S = 0.4  # one compressed "day"
SEED = 7
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def size_peak_fleet(backend_name: str) -> int:
    """Minimal fleet meeting the p99 SLA at the sustained peak rate."""
    planner = CapacityPlanner(
        HARPV2_SYSTEM, sla_s=SLA_S, target_attainment=0.99, batching=BATCHING, seed=SEED
    )
    point = planner.plan_backend(
        backend_name,
        DLRM2,
        Workload(arrivals=PoissonArrivals(rate_qps=PEAK_QPS), name="peak"),
        duration_s=PERIOD_S / 4,
    )
    assert point.feasible, f"{backend_name} cannot meet the SLA at peak within bounds"
    print(
        f"peak sizing [{backend_name}]: {point.replicas} replicas "
        f"(p99 {point.p99_s * 1e3:.2f} ms at {PEAK_QPS:,.0f} QPS; "
        f"fleets simulated: {list(point.evaluated)})"
    )
    return point.replicas


def main() -> None:
    backend = get_backend("cpu", HARPV2_SYSTEM)
    peak_replicas = size_peak_fleet("cpu")
    diurnal = Workload(
        arrivals=DiurnalArrivals(
            trough_qps=TROUGH_QPS, peak_qps=PEAK_QPS, period_s=PERIOD_S
        ),
        name="diurnal-day",
    )

    static = Fleet(
        backend,
        DLRM2,
        FleetSpec(
            replicas=peak_replicas, batching=BATCHING, dispatcher=LeastLoadedDispatcher()
        ),
    )
    reports = {
        f"static x{peak_replicas} (peak-provisioned)": static.serve_workload(
            diurnal, duration_s=PERIOD_S, seed=SEED
        )
    }

    policies = (
        TargetUtilizationPolicy(target=0.7, deadband=0.1, cooldown_s=0.02),
        QueueDepthPolicy(high_watermark=64, low_watermark=8, cooldown_s=0.02),
        EWMAPolicy(alpha=0.4, headroom=1.3, replica_capacity_qps=PEAK_QPS / peak_replicas),
        ScheduledPolicy([(0.0, 1), (PERIOD_S * 0.25, peak_replicas), (PERIOD_S * 0.8, 2)]),
    )
    for policy in policies:
        elastic = Fleet(
            backend,
            DLRM2,
            FleetSpec(
                policy=policy,
                min_replicas=1,
                max_replicas=peak_replicas,
                control_interval_s=0.01,
                warmup_s=backend.capabilities.provision_warmup_s,
                batching=BATCHING,
                dispatcher=LeastLoadedDispatcher(),
            ),
        )
        reports[f"autoscaled ({policy.name})"] = elastic.serve_workload(
            diurnal, duration_s=PERIOD_S, seed=SEED
        )

    print()
    print(
        render_serving_comparison(
            reports,
            sla_s=SLA_S,
            title=(
                f"One diurnal cycle ({TROUGH_QPS:,.0f}-{PEAK_QPS:,.0f} QPS): "
                "static peak fleet vs autoscaled"
            ),
        )
    )

    cost = TextTable(
        ["configuration", "replica-seconds", "vs static", "peak fleet", "scale events"],
        title="What the elasticity bought",
    )
    static_seconds = reports[f"static x{peak_replicas} (peak-provisioned)"].replica_seconds
    for label, report in reports.items():
        autoscale = report.autoscale
        cost.add_row(
            [
                label,
                f"{report.replica_seconds:.3f}",
                f"{100.0 * report.replica_seconds / static_seconds:.0f}%",
                autoscale.peak_replicas if autoscale else report.num_replicas,
                (autoscale.scale_up_events + autoscale.scale_down_events)
                if autoscale
                else 0,
            ]
        )
    print()
    print(cost.render())

    best_label = min(
        (label for label, report in reports.items() if report.autoscale is not None),
        key=lambda label: reports[label].replica_seconds,
    )
    print()
    print(
        render_autoscale_timeline(
            reports[best_label],
            sla_s=SLA_S,
            title=f"Cheapest elastic fleet: {best_label}",
        )
    )
    print(
        "\nThe autoscaled fleets hold the peak fleet's SLA attainment while"
        "\npaying for a fraction of its replica-hours; the predictive EWMA"
        "\npolicy commissions capacity ahead of the crest it smooths toward."
    )


if __name__ == "__main__":
    main()
