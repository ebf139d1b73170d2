"""Integration: autoscaling holds a static fleet's SLA for fewer replica-hours.

The PR's acceptance scenario, end to end and seeded: one diurnal cycle is
served by (a) a fleet statically provisioned for the peak rate and (b) an
elastic fleet under the target-utilization autoscaler bounded by the same
peak size.  The elastic fleet must deliver at least 99% of the static
fleet's p99 SLA attainment while spending measurably fewer replica-seconds.
"""

import pytest

from repro.backends import get_backend
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import (
    CapacityPlanner,
    Fleet,
    FleetSpec,
    TargetUtilizationPolicy,
    TimeoutBatching,
)
from repro.workloads import DiurnalArrivals, PoissonArrivals, Workload

SLA_S = 5e-3
TROUGH_QPS, PEAK_QPS = 4_000.0, 40_000.0
PERIOD_S = 0.4
SEED = 7
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)

DIURNAL = Workload(
    arrivals=DiurnalArrivals(
        trough_qps=TROUGH_QPS, peak_qps=PEAK_QPS, period_s=PERIOD_S
    ),
    name="diurnal-cycle",
)


@pytest.fixture(scope="module")
def peak_replicas():
    """Peak-provision the static fleet with the capacity planner itself."""
    planner = CapacityPlanner(
        HARPV2_SYSTEM, sla_s=SLA_S, target_attainment=0.99, batching=BATCHING, seed=SEED
    )
    point = planner.plan_backend(
        "cpu",
        DLRM2,
        Workload(arrivals=PoissonArrivals(rate_qps=PEAK_QPS), name="peak"),
        duration_s=PERIOD_S / 4,
    )
    assert point.feasible
    return point.replicas


@pytest.fixture(scope="module")
def static_report(peak_replicas):
    backend = get_backend("cpu", HARPV2_SYSTEM)
    cluster = Fleet(backend, DLRM2, FleetSpec(replicas=peak_replicas, batching=BATCHING))
    return cluster.serve_workload(DIURNAL, duration_s=PERIOD_S, seed=SEED)


@pytest.fixture(scope="module")
def elastic_report(peak_replicas):
    backend = get_backend("cpu", HARPV2_SYSTEM)
    cluster = Fleet(
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
    )
    return cluster.serve_workload(DIURNAL, duration_s=PERIOD_S, seed=SEED)


class TestAutoscaledDiurnalServing:
    def test_same_traffic_served(self, static_report, elastic_report):
        assert elastic_report.completed_requests == static_report.completed_requests
        assert elastic_report.completed_requests > 0

    def test_attainment_within_one_percent_of_static(
        self, static_report, elastic_report
    ):
        static_attainment = static_report.latency.sla_attainment(SLA_S)
        elastic_attainment = elastic_report.latency.sla_attainment(SLA_S)
        assert elastic_attainment >= 0.99 * static_attainment

    def test_measurably_fewer_replica_hours(self, static_report, elastic_report):
        # "Measurably": at least 5% cheaper, not a rounding artifact.
        assert elastic_report.replica_seconds < 0.95 * static_report.replica_seconds

    def test_fleet_actually_breathed(self, elastic_report, peak_replicas):
        autoscale = elastic_report.autoscale
        assert autoscale is not None
        assert autoscale.policy == "target-utilization"
        assert autoscale.scale_up_events >= 1
        counts = {count for _, count in autoscale.timeline}
        assert len(counts) > 1  # not a constant fleet
        assert max(counts) <= peak_replicas

    def test_run_is_seeded_and_reproducible(self, elastic_report, peak_replicas):
        backend = get_backend("cpu", HARPV2_SYSTEM)
        cluster = Fleet(
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
        )
        again = cluster.serve_workload(DIURNAL, duration_s=PERIOD_S, seed=SEED)
        assert again.autoscale.timeline == elastic_report.autoscale.timeline
        assert again.replica_seconds == elastic_report.replica_seconds
        assert (
            again.latency.samples_s.tobytes()
            == elastic_report.latency.samples_s.tobytes()
        )
