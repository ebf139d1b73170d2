"""Extension benchmark (beyond the paper): capacity planning + autoscaling.

The paper's datacenter pitch is sockets saved at a fixed SLA; this
benchmark quantifies it end to end.  A capacity plan searches the minimal
fleet per design point meeting a p99 SLA under steady peak load, then one
diurnal cycle is served both by the CPU peak-provisioned static fleet and
by an elastic fleet under the target-utilization autoscaler — same SLA,
measurably fewer replica-hours.
"""

from repro.analysis import render_capacity_plan
from repro.backends import get_backend
from repro.config import DLRM2
from repro.serving import (
    CapacityPlanner,
    Fleet,
    FleetSpec,
    TargetUtilizationPolicy,
    TimeoutBatching,
)
from repro.utils import TextTable
from repro.workloads import DiurnalArrivals, PoissonArrivals, Workload

SLA_S = 5e-3
PEAK_QPS = 40_000.0
TROUGH_QPS = 4_000.0
PERIOD_S = 0.4
SEED = 7
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def _plan_and_autoscale(system):
    planner = CapacityPlanner(
        system, sla_s=SLA_S, target_attainment=0.99, batching=BATCHING, seed=SEED
    )
    peak = Workload(arrivals=PoissonArrivals(rate_qps=PEAK_QPS), name="peak")
    plan = planner.plan(
        peak, DLRM2, backends=("cpu", "cpu-gpu", "centaur"), duration_s=PERIOD_S / 4
    )

    diurnal = Workload(
        arrivals=DiurnalArrivals(
            trough_qps=TROUGH_QPS, peak_qps=PEAK_QPS, period_s=PERIOD_S
        ),
        name="diurnal",
    )
    backend = get_backend("cpu", system)
    peak_replicas = plan.get("cpu").replicas
    static = Fleet(
        backend, DLRM2, FleetSpec(replicas=peak_replicas, batching=BATCHING)
    ).serve_workload(diurnal, duration_s=PERIOD_S, seed=SEED)
    elastic = Fleet(
        backend,
        DLRM2,
        FleetSpec(
            policy=TargetUtilizationPolicy(target=0.7, deadband=0.1, cooldown_s=0.02),
            min_replicas=1,
            max_replicas=peak_replicas,
            control_interval_s=0.01,
            warmup_s=backend.capabilities.provision_warmup_s,
            batching=BATCHING,
        ),
    ).serve_workload(diurnal, duration_s=PERIOD_S, seed=SEED)
    return plan, static, elastic


def test_autoscale_capacity(report_sink, system):
    plan, static, elastic = _plan_and_autoscale(system)

    table = TextTable(
        ["fleet", "SLA attainment %", "p99 (ms)", "replica-seconds", "vs static %"],
        title=(
            f"One diurnal cycle ({TROUGH_QPS:,.0f}-{PEAK_QPS:,.0f} QPS) on CPU-only: "
            "peak-provisioned vs target-utilization autoscaler"
        ),
    )
    for label, report in (
        (f"static x{static.num_replicas}", static),
        ("autoscaled (target-utilization)", elastic),
    ):
        table.add_row(
            [
                label,
                100.0 * report.latency.sla_attainment(SLA_S),
                report.latency.p99_s * 1e3,
                report.replica_seconds,
                100.0 * report.replica_seconds / static.replica_seconds,
            ]
        )
    rendered = (
        render_capacity_plan(plan, title="Peak capacity plan") + "\n\n" + table.render()
    )
    report_sink("autoscale_capacity", rendered)

    # The paper's sockets-saved story: Centaur meets the SLA with fewer
    # replicas than the CPU-only baseline at the same peak load.
    assert plan.get("centaur").replicas <= plan.get("cpu").replicas
    assert plan.best().backend == "centaur"
    # Elasticity holds the static fleet's SLA while paying fewer replica-hours.
    assert elastic.latency.sla_attainment(SLA_S) >= 0.99 * static.latency.sla_attainment(
        SLA_S
    )
    assert elastic.replica_seconds < static.replica_seconds
    assert elastic.autoscale is not None
    assert elastic.autoscale.scale_up_events >= 1
