"""Fault injection on replica fleets: crashes, restarts, brownouts, shedding."""

import hashlib

import pytest

from repro.backends import get_backend
from repro.chaos import (
    Brownout,
    FaultSchedule,
    LinkDegradation,
    PoissonFaults,
    ReplicaCrash,
    ShardLoss,
)
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.errors import ConfigurationError
from repro.serving import Fleet, FleetSpec, QueueDepthPolicy, ScheduledPolicy, TimeoutBatching
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
WORKLOAD = Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady")
NUM_REQUESTS = 1_000
SEED = 4


def serve(faults, *, replicas=3, policy=None, max_replicas=None, **kwargs):
    cluster = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM1,
        FleetSpec(
            policy=policy,
            min_replicas=1,
            max_replicas=max_replicas if max_replicas is not None else replicas,
            replicas=replicas,
            control_interval_s=5e-3,
            warmup_s=2e-3,
            batching=BATCHING,
            **kwargs,
        ),
    )
    report = cluster.serve_workload(
        WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED, faults=faults
    )
    return cluster, report


class TestCrashIncidents:
    def test_crash_with_restart_clears_and_redispatches(self):
        cluster, report = serve(
            FaultSchedule([ReplicaCrash(at_s=0.01, restart_after_s=0.005)], sla_s=5e-3)
        )
        incidents = report.incidents
        assert incidents is not None
        (incident,) = incidents.incidents
        assert incident.kind == "crash"
        assert incident.target == "replica:2"  # highest active index by default
        assert incident.cleared
        assert incident.end_s > incident.start_s
        assert incident.shed_requests == 0
        assert report.autoscale.crashes == 1
        assert report.autoscale.restarts == 1
        # Conservation: nothing lost on a redispatching crash.
        outcome = cluster.last_outcome
        assert outcome.scheduled == outcome.completed == NUM_REQUESTS
        assert outcome.shed == 0
        # Recovery is priced: the restarted slot billed replica-seconds.
        assert incident.recovery_replica_seconds > 0.0
        assert incident.recovery_energy_joules >= 0.0

    def test_crash_shedding_inflight_accounts_for_the_loss(self):
        cluster, report = serve(
            FaultSchedule(
                [ReplicaCrash(at_s=0.01, on_inflight="shed", restart_after_s=0.005)]
            )
        )
        outcome = cluster.last_outcome
        (incident,) = report.incidents.incidents
        assert outcome.scheduled == NUM_REQUESTS
        assert outcome.completed + outcome.shed == NUM_REQUESTS
        assert outcome.shed == incident.shed_requests
        assert incidents_total(report) == outcome.shed

    def test_unrecovered_crash_is_reported_uncleared(self):
        _, report = serve(FaultSchedule([ReplicaCrash(at_s=0.01, replica=2)]))
        (incident,) = report.incidents.incidents
        assert not incident.cleared
        assert incident.end_s == pytest.approx(report.incidents.horizon_s)
        assert report.autoscale.crashes == 1
        assert report.autoscale.restarts == 0

    def test_total_outage_sheds_arrivals_until_restart(self):
        cluster, report = serve(
            FaultSchedule([ReplicaCrash(at_s=0.01, restart_after_s=0.01)]),
            replicas=1,
        )
        outcome = cluster.last_outcome
        (incident,) = report.incidents.incidents
        assert outcome.shed > 0, "arrivals during a zero-replica outage must shed"
        assert outcome.completed + outcome.shed == NUM_REQUESTS
        assert incident.shed_requests == outcome.shed
        assert incident.cleared

    def test_permanent_total_outage_still_builds_a_report(self):
        # Every replica dies before anything completes and nothing ever
        # restarts: the whole stream sheds and the report must still
        # build (an all-shed run is a measured outcome, not a crash).
        cluster, report = serve(
            FaultSchedule(
                [
                    ReplicaCrash(at_s=0.001),
                    ReplicaCrash(at_s=0.001),
                ]
            ),
            replicas=2,
        )
        outcome = cluster.last_outcome
        assert outcome.completed == 0
        assert outcome.shed == NUM_REQUESTS
        assert report.completed_requests == 0
        assert len(report.latency.samples_s) == 0
        assert len(report.per_replica) == 0
        assert report.incidents.total_shed == NUM_REQUESTS

    def test_crashing_a_stopped_slot_is_a_noop_incident(self):
        _, report = serve(
            FaultSchedule([ReplicaCrash(at_s=0.01, replica=3)]),
            replicas=2,
            max_replicas=4,
        )
        (incident,) = report.incidents.incidents
        assert "no-op" in incident.note
        assert report.autoscale.crashes == 0

    def test_two_simultaneous_crashes_take_distinct_replicas(self):
        _, report = serve(
            FaultSchedule(
                [
                    ReplicaCrash(at_s=0.01, restart_after_s=0.02),
                    ReplicaCrash(at_s=0.01, restart_after_s=0.02),
                ]
            )
        )
        targets = {incident.target for incident in report.incidents.incidents}
        assert targets == {"replica:2", "replica:1"}
        assert report.autoscale.crashes == 2
        assert report.autoscale.restarts == 2


class TestBrownoutIncidents:
    def test_brownout_inflates_latency_inside_the_window(self):
        slow = FaultSchedule(
            [Brownout(at_s=0.0, duration_s=10.0, replica=0, latency_factor=8.0)]
        )
        _, degraded = serve(slow, replicas=1)
        _, healthy = serve(None, replicas=1)
        assert degraded.latency.percentiles((99.0,))[0] > (
            healthy.latency.percentiles((99.0,))[0]
        )
        (incident,) = degraded.incidents.incidents
        assert incident.kind == "brownout"
        assert incident.sla_during < 1.0

    def test_brownout_window_clears(self):
        _, report = serve(
            FaultSchedule(
                [Brownout(at_s=0.01, duration_s=0.01, replica=0, latency_factor=4.0)]
            )
        )
        (incident,) = report.incidents.incidents
        assert incident.cleared
        assert incident.end_s == pytest.approx(0.02)


class TestPoissonDrivenFaults:
    def test_rate_driven_crashes_stay_deterministic_and_conservative(self):
        def run():
            schedule = FaultSchedule(
                [
                    PoissonFaults(
                        template=ReplicaCrash(
                            at_s=0.0, restart_after_s=0.004, on_inflight="shed"
                        ),
                        rate_hz=60.0,
                        end_s=0.04,
                        seed=9,
                    )
                ]
            )
            cluster, report = serve(schedule)
            return cluster.last_outcome, report

        first_outcome, first_report = run()
        second_outcome, second_report = run()
        assert first_outcome == second_outcome
        assert first_outcome.completed + first_outcome.shed == NUM_REQUESTS
        assert len(first_report.incidents.incidents) == len(
            second_report.incidents.incidents
        )


class TestAutoscalerComposition:
    def test_crash_composes_with_an_active_policy(self):
        policy = QueueDepthPolicy(high_watermark=16.0, low_watermark=2.0, cooldown_s=0.01)
        cluster, report = serve(
            FaultSchedule([ReplicaCrash(at_s=0.015, restart_after_s=0.01)]),
            replicas=2,
            max_replicas=4,
            policy=policy,
        )
        outcome = cluster.last_outcome
        assert outcome.completed + outcome.shed == NUM_REQUESTS
        assert report.autoscale.crashes == 1
        (incident,) = report.incidents.incidents
        # Either the chaos restart won the slot back, or the autoscaler
        # reclaimed it first — both are legal, and the report says which.
        assert incident.cleared or "reclaimed" in incident.note

    def test_outage_outliving_every_crash_record_is_charged_to_the_latest(self):
        # The scale-in to one replica cancels the restarted slot's warm-up,
        # so the outage after the second crash outlives both records.
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM1,
            FleetSpec(
                policy=ScheduledPolicy([(0.0, 2), (0.005, 1)]),
                min_replicas=1,
                max_replicas=3,
                replicas=2,
                control_interval_s=5e-3,
                warmup_s=12e-3,
                batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
            ),
        )
        report = cluster.serve_workload(
            WORKLOAD,
            num_requests=600,
            seed=1,
            faults=FaultSchedule(
                [
                    ReplicaCrash(at_s=0.004, replica=0, restart_after_s=0.001),
                    ReplicaCrash(at_s=0.011, restart_after_s=0.008, warmup_s=0.003),
                ]
            ),
        )
        outcome = cluster.last_outcome
        assert outcome.shed > 0
        assert report.incidents.total_shed == outcome.shed
        assert report.incidents.incidents[-1].shed_requests == outcome.shed


class TestFleetValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            ShardLoss(at_s=0.01, shard=0),
            LinkDegradation(at_s=0.01, duration_s=0.01, bandwidth_factor=0.5),
        ],
    )
    def test_sharded_only_faults_rejected_on_fleets(self, spec):
        with pytest.raises(ConfigurationError):
            serve(FaultSchedule([spec]))

    def test_crash_target_outside_the_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            serve(FaultSchedule([ReplicaCrash(at_s=0.01, replica=7)]))

    @pytest.mark.parametrize(
        "replicas, digest",
        [
            (1, "d7b73d956add7fb4e2c5dc20be75ad7280ee67a576b256206c175f609c3de208"),
            (2, "f6c16d748b3be51dbf9111792c97fb5e3da45ee777e4e3100ef2819684aaf022"),
        ],
    )
    def test_plain_fleet_under_a_crash_schedule_reports_its_incidents(self, replicas, digest):
        # A static fleet given a fault schedule serves it as a policy-less
        # elastic one.  The digest pins the IncidentReport of the elastic
        # path at the same sizing (``replicas`` active of 8 slots).
        fleet = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM1,
            FleetSpec(replicas=replicas, batching=BATCHING),
        )
        report = fleet.serve_workload(
            WORKLOAD,
            num_requests=NUM_REQUESTS,
            seed=SEED,
            faults=FaultSchedule([ReplicaCrash(at_s=0.01, restart_after_s=0.005)]),
        )
        assert report.num_replicas == replicas
        assert hashlib.sha256(repr(report.incidents).encode()).hexdigest() == digest


def incidents_total(report):
    return report.incidents.total_shed
