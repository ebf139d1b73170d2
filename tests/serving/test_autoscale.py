"""Tests for the autoscaling policies and the elastic cluster."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.serving import (
    EWMAPolicy,
    Fleet,
    FleetSpec,
    LeastLoadedDispatcher,
    QueueDepthPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    TimeoutBatching,
    parse_autoscaler_spec,
)
from repro.serving.autoscale import ClusterObservation
from repro.workloads import DiurnalArrivals, PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def observation(**overrides) -> ClusterObservation:
    defaults = dict(
        time_s=1.0,
        interval_s=0.01,
        active_replicas=2,
        starting_replicas=0,
        draining_replicas=0,
        total_outstanding=4,
        queue_depth_per_replica=2.0,
        utilization=0.5,
        arrival_rate_qps=10_000.0,
        replica_capacity_qps=20_000.0,
        min_replicas=1,
        max_replicas=8,
    )
    defaults.update(overrides)
    return ClusterObservation(**defaults)


class TestQueueDepthPolicy:
    def test_scales_on_watermarks(self):
        policy = QueueDepthPolicy(high_watermark=8.0, low_watermark=1.0)
        assert policy.desired_replicas(observation(queue_depth_per_replica=10.0)) == 3
        assert policy.desired_replicas(observation(queue_depth_per_replica=0.5)) == 1
        assert policy.desired_replicas(observation(queue_depth_per_replica=4.0)) == 2

    def test_cooldown_is_hysteresis(self):
        policy = QueueDepthPolicy(high_watermark=8.0, low_watermark=1.0, cooldown_s=1.0)
        policy.reset()
        assert policy.desired_replicas(
            observation(time_s=0.0, queue_depth_per_replica=10.0)
        ) == 3
        # Within the cooldown the policy holds, whatever the queue does.
        assert policy.desired_replicas(
            observation(time_s=0.5, queue_depth_per_replica=100.0)
        ) == 2
        assert policy.desired_replicas(
            observation(time_s=1.5, queue_depth_per_replica=100.0)
        ) == 3

    def test_clamped_no_ops_do_not_restart_the_cooldown(self):
        # Pinned at max_replicas under sustained overload, every tick asks
        # for more capacity and is clamped back; those no-ops must not
        # hold the eventual scale-in hostage for a cooldown each.
        policy = QueueDepthPolicy(high_watermark=8.0, low_watermark=1.0, cooldown_s=1.0)
        policy.reset()
        pinned = observation(
            time_s=0.0, active_replicas=8, queue_depth_per_replica=100.0
        )
        assert policy.desired_replicas(pinned) == 8  # clamped: no change
        # The very next tick under-load may scale in immediately.
        assert policy.desired_replicas(
            observation(time_s=0.1, active_replicas=8, queue_depth_per_replica=0.0)
        ) == 7

    def test_reset_clears_cooldown(self):
        policy = QueueDepthPolicy(high_watermark=8.0, low_watermark=1.0, cooldown_s=10.0)
        policy.desired_replicas(observation(time_s=0.0, queue_depth_per_replica=10.0))
        policy.reset()
        assert policy.desired_replicas(
            observation(time_s=0.1, queue_depth_per_replica=10.0)
        ) == 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            QueueDepthPolicy(high_watermark=1.0, low_watermark=2.0)
        with pytest.raises(SimulationError):
            QueueDepthPolicy(step=0)
        with pytest.raises(SimulationError):
            QueueDepthPolicy(cooldown_s=-1.0)


class TestTargetUtilizationPolicy:
    def test_proportional_rule(self):
        policy = TargetUtilizationPolicy(target=0.5, deadband=0.1)
        # 2 replicas at 90% utilization need ceil(2 * 0.9 / 0.5) = 4.
        assert policy.desired_replicas(observation(utilization=0.9)) == 4
        # 2 replicas at 10% need ceil(2 * 0.1 / 0.5) = 1.
        assert policy.desired_replicas(observation(utilization=0.1)) == 1

    def test_deadband_holds(self):
        policy = TargetUtilizationPolicy(target=0.5, deadband=0.15)
        for utilization in (0.36, 0.5, 0.64):
            assert policy.desired_replicas(observation(utilization=utilization)) == 2

    def test_validation(self):
        with pytest.raises(SimulationError):
            TargetUtilizationPolicy(target=0.0)
        with pytest.raises(SimulationError):
            TargetUtilizationPolicy(target=1.5)
        with pytest.raises(SimulationError):
            TargetUtilizationPolicy(target=0.5, deadband=0.5)


class TestScheduledPolicy:
    def test_follows_schedule(self):
        policy = ScheduledPolicy([(0.0, 1), (1.0, 4), (2.0, 2)])
        assert policy.desired_replicas(observation(time_s=0.5)) == 1
        assert policy.desired_replicas(observation(time_s=1.0)) == 4
        assert policy.desired_replicas(observation(time_s=5.0)) == 2

    def test_before_first_entry_defers_to_floor(self):
        policy = ScheduledPolicy([(1.0, 4)])
        # Returns 0; the controller clamps to min_replicas.
        assert policy.desired_replicas(observation(time_s=0.5)) == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            ScheduledPolicy([])
        with pytest.raises(SimulationError):
            ScheduledPolicy([(0.0, 1), (0.0, 2)])
        with pytest.raises(SimulationError):
            ScheduledPolicy([(0.0, 0)])


class TestEWMAPolicy:
    def test_smooths_toward_observed_rate(self):
        policy = EWMAPolicy(alpha=0.5, headroom=1.0, replica_capacity_qps=10_000.0)
        policy.reset()
        # First observation seeds the average directly.
        assert policy.desired_replicas(observation(arrival_rate_qps=40_000.0)) == 4
        # 0.5 * 0 + 0.5 * 40000 = 20000 -> 2 replicas.
        assert policy.desired_replicas(observation(arrival_rate_qps=0.0)) == 2

    def test_uses_observed_capacity_when_not_given(self):
        policy = EWMAPolicy(alpha=1.0, headroom=1.0)
        policy.reset()
        desired = policy.desired_replicas(
            observation(arrival_rate_qps=40_000.0, replica_capacity_qps=20_000.0)
        )
        assert desired == 2

    def test_validation(self):
        with pytest.raises(SimulationError):
            EWMAPolicy(alpha=0.0)
        with pytest.raises(SimulationError):
            EWMAPolicy(headroom=0.0)
        with pytest.raises(SimulationError):
            EWMAPolicy(replica_capacity_qps=-1.0)


class TestParseAutoscalerSpec:
    def test_parses_every_kind(self):
        assert isinstance(parse_autoscaler_spec("queue"), QueueDepthPolicy)
        assert isinstance(parse_autoscaler_spec("util:target=0.7"), TargetUtilizationPolicy)
        assert isinstance(parse_autoscaler_spec("ewma:rate=20000"), EWMAPolicy)
        scheduled = parse_autoscaler_spec("schedule:0=1,0.5=4")
        assert isinstance(scheduled, ScheduledPolicy)
        assert scheduled.schedule == ((0.0, 1), (0.5, 4))

    def test_parameters_reach_the_policy(self):
        policy = parse_autoscaler_spec("queue:high=32,low=4,step=2,cooldown=0.1")
        assert policy.high_watermark == 32.0
        assert policy.low_watermark == 4.0
        assert policy.step == 2
        assert policy.cooldown_s == 0.1

    def test_rejects_bad_specs(self):
        for spec in ("", "warp-speed", "queue:frobnicate=1", "schedule:", "schedule:abc"):
            with pytest.raises(ConfigurationError):
                parse_autoscaler_spec(spec)


def _fingerprint(report):
    return (
        report.completed_requests,
        report.num_replicas,
        tuple(r.completed_requests for r in report.per_replica),
        report.latency.samples_s.tobytes(),
        report.total_energy_joules,
    )


class TestAutoscalingCluster:
    def _cluster(self, policy, **kwargs):
        backend = get_backend("cpu", HARPV2_SYSTEM)
        defaults = dict(
            min_replicas=1,
            max_replicas=4,
            control_interval_s=0.01,
            warmup_s=0.002,
            batching=BATCHING,
        )
        defaults.update(kwargs)
        return Fleet(backend, DLRM2, FleetSpec(policy=policy, **defaults))

    def test_validation(self):
        backend = get_backend("cpu", HARPV2_SYSTEM)
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(min_replicas=0))
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(min_replicas=4, max_replicas=2))
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(replicas=9, max_replicas=4, policy=QueueDepthPolicy()))
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(control_interval_s=0.0))
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(warmup_s=-1.0))
        with pytest.raises(SimulationError):
            Fleet(backend, DLRM2, FleetSpec(policy="queue"))

    def test_disabled_is_bit_identical_to_static_cluster(self):
        backend = get_backend("cpu", HARPV2_SYSTEM)
        workload = Workload(arrivals=PoissonArrivals(rate_qps=30_000.0))
        static = Fleet(
            backend,
            DLRM2,
            FleetSpec(replicas=3, batching=BATCHING),
        ).serve_workload(workload, num_requests=2_000, seed=3)
        disabled = self._cluster(
            None, replicas=3, min_replicas=3, max_replicas=5
        ).serve_workload(workload, num_requests=2_000, seed=3)
        assert disabled.autoscale is None
        assert _fingerprint(disabled) == _fingerprint(static)
        np.testing.assert_array_equal(
            disabled.latency.samples_s, static.latency.samples_s
        )

    def test_scales_up_under_load_and_conserves_requests(self):
        policy = QueueDepthPolicy(high_watermark=16.0, low_watermark=2.0)
        cluster = self._cluster(policy)
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=60_000.0)),
            num_requests=4_000,
            seed=1,
        )
        outcome = cluster.last_outcome
        assert outcome.scheduled == outcome.completed == 4_000
        assert report.completed_requests == 4_000
        assert report.autoscale is not None
        assert report.autoscale.scale_up_events >= 1
        assert report.autoscale.peak_replicas > 1

    def test_stranded_partial_batch_terminates_and_conserves(self):
        # Regression: FixedSizeBatching with no wait cap strands its trailing
        # partial batch (no close timer, no device-idle action).  The control
        # loop must stop ticking once only pending work remains so the
        # end-of-stream flush in drive_stream can drain it — this used to
        # keep the simulation alive forever.
        from repro.serving import FixedSizeBatching

        cluster = self._cluster(
            QueueDepthPolicy(high_watermark=16.0, low_watermark=2.0),
            batching=FixedSizeBatching(batch_size=64),
        )
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=20_000.0)),
            num_requests=100,  # not a multiple of 64: the tail must flush
            seed=0,
        )
        assert cluster.last_outcome.completed == 100
        assert report.completed_requests == 100

    def test_drain_before_stop_loses_no_requests(self):
        # Force aggressive down-scaling right as load keeps arriving: the
        # schedule commissions 4 replicas then drops to 1 mid-stream.
        policy = ScheduledPolicy([(0.0, 4), (0.03, 1)])
        cluster = self._cluster(policy, replicas=4, min_replicas=1)
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=50_000.0)),
            num_requests=5_000,
            seed=2,
        )
        assert cluster.last_outcome.completed == 5_000
        assert report.completed_requests == 5_000
        assert report.autoscale.scale_down_events >= 3
        # The timeline must agree with the billing: drained replicas are
        # decommissioned in the final timeline entry, not reported as still
        # commissioned after their intervals closed.
        assert report.autoscale.timeline[-1][1] == 1

    def test_timeline_counts_stay_within_bounds(self):
        policy = TargetUtilizationPolicy(target=0.6, deadband=0.1)
        cluster = self._cluster(policy, min_replicas=1, max_replicas=3)
        report = cluster.serve_workload(
            Workload(
                arrivals=DiurnalArrivals(
                    trough_qps=5_000.0, peak_qps=50_000.0, period_s=0.2
                )
            ),
            duration_s=0.2,
            seed=4,
        )
        counts = [count for _, count in report.autoscale.timeline]
        times = [time for time, _ in report.autoscale.timeline]
        assert all(1 <= count <= 3 for count in counts)
        assert times == sorted(times)
        assert report.autoscale.replicas_at(0.0) == 1

    def test_long_warmup_keeps_new_replicas_out_of_service(self):
        # Warm-up longer than the run: commissioned replicas never activate,
        # so all traffic lands on the initial replica — but the fleet still
        # pays for the warming capacity.
        policy = ScheduledPolicy([(0.0, 1), (0.02, 3)])
        cluster = self._cluster(policy, warmup_s=10.0)
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=20_000.0)),
            num_requests=2_000,
            seed=5,
        )
        assert report.num_replicas == 1
        assert len(report.per_replica) == 1
        assert report.autoscale.peak_replicas == 3
        single_makespan = report.per_replica[0].makespan_s
        assert report.autoscale.replica_seconds > single_makespan

    def test_replica_seconds_below_static_equivalent(self):
        policy = QueueDepthPolicy(high_watermark=32.0, low_watermark=4.0)
        cluster = self._cluster(policy, max_replicas=4)
        report = cluster.serve_workload(
            Workload(
                arrivals=DiurnalArrivals(
                    trough_qps=4_000.0, peak_qps=40_000.0, period_s=0.3
                )
            ),
            duration_s=0.3,
            seed=6,
        )
        static_equivalent = report.autoscale.peak_replicas * report.makespan_s
        assert report.replica_seconds < static_equivalent

    def test_idle_energy_accounting(self):
        policy = QueueDepthPolicy(high_watermark=32.0, low_watermark=4.0)
        cluster = self._cluster(policy, idle_power_w=50.0)
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=20_000.0)),
            num_requests=2_000,
            seed=7,
        )
        autoscale = report.autoscale
        busy_seconds = sum(r.device_busy_s for r in report.per_replica)
        expected_idle = 50.0 * max(autoscale.replica_seconds - busy_seconds, 0.0)
        assert autoscale.idle_energy_joules == pytest.approx(expected_idle)
        assert autoscale.busy_energy_joules == pytest.approx(
            report.total_energy_joules
        )
        assert autoscale.total_energy_joules == pytest.approx(
            autoscale.busy_energy_joules + autoscale.idle_energy_joules
        )

    def test_dispatcher_only_sees_active_replicas(self):
        # With min == max == initial the fleet never changes; the elastic
        # path must agree with the static fleet on totals even with a
        # policy installed (it keeps asking for the same count).
        policy = ScheduledPolicy([(0.0, 2)])
        cluster = self._cluster(
            policy, min_replicas=2, max_replicas=2, replicas=2,
            dispatcher=LeastLoadedDispatcher(),
        )
        workload = Workload(arrivals=PoissonArrivals(rate_qps=30_000.0))
        elastic = cluster.serve_workload(workload, num_requests=2_000, seed=8)
        backend = get_backend("cpu", HARPV2_SYSTEM)
        static = Fleet(
            backend,
            DLRM2,
            FleetSpec(replicas=2, batching=BATCHING, dispatcher=LeastLoadedDispatcher()),
        ).serve_workload(workload, num_requests=2_000, seed=8)
        np.testing.assert_array_equal(
            elastic.latency.samples_s, static.latency.samples_s
        )

    def test_serves_smallest_model_with_ewma(self):
        policy = EWMAPolicy(alpha=0.5, headroom=1.2, replica_capacity_qps=15_000.0)
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM1,
            FleetSpec(
                policy=policy,
                min_replicas=1,
                max_replicas=4,
                control_interval_s=0.005,
                batching=BATCHING,
            ),
        )
        report = cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=45_000.0)),
            num_requests=3_000,
            seed=9,
        )
        assert report.completed_requests == 3_000
        assert report.autoscale.peak_replicas >= 2
