"""Fault injection on replica fleets: crashes, restarts, brownouts, shedding."""

import hashlib

import pytest

from repro.analysis import render_incident_timeline
from repro.backends import get_backend
from repro.chaos import (
    Brownout,
    FaultSchedule,
    LinkDegradation,
    PoissonFaults,
    ReplicaCrash,
    ShardLoss,
    measure_incidents,
    parse_fault_schedule,
)
from repro.config import DLRM1, DLRM6, HARPV2_SYSTEM
from repro.errors import ConfigurationError
from repro.serving import Fleet, FleetSpec, QueueDepthPolicy, ScheduledPolicy, TimeoutBatching
from repro.serving.replica import ReplicaServer
from repro.workloads import PoissonArrivals, TrafficMix, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
WORKLOAD = Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady")
NUM_REQUESTS = 1_000
SEED = 4
SLA_S = 10e-3


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
            FaultSchedule([ReplicaCrash(at_s=0.01, restart_after_s=0.005)])
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
        # Nothing completed in any window, so nothing was attained.
        measures = measure_incidents(report, SLA_S)
        for windows in measures.windows:
            assert windows.sla_before is windows.sla_during is windows.sla_after is None
            assert windows.p99_before_s is None
            assert windows.time_to_recover_s is None
        assert measures.worst_sla_during is None

    def test_crashing_a_stopped_slot_is_a_noop_incident(self):
        _, report = serve(
            FaultSchedule([ReplicaCrash(at_s=0.01, replica=3)]),
            replicas=2,
            max_replicas=4,
        )
        (incident,) = report.incidents.incidents
        assert "no-op" in incident.note
        assert report.autoscale.crashes == 0
        # It opens and closes at once: nothing completes during its empty
        # window, so it reads "-" during while its neighbours are measured.
        assert incident.start_s == incident.end_s
        measures = measure_incidents(report, SLA_S)
        (windows,) = measures.windows
        assert windows.sla_during is None
        assert 0.0 <= windows.sla_before <= 1.0
        assert 0.0 <= windows.sla_after <= 1.0
        assert measures.worst_sla_during is None
        row = next(
            line
            for line in render_incident_timeline(report, SLA_S).splitlines()
            if line.startswith("| crash")
        )
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[6] != "-" and cells[8] != "-"
        assert cells[7] == "-"

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


class TestMixUnderCrash:
    """A two-model mix through a crash: arrivals carry a model tag only on
    a mix, so a crash must salvage the tags with the times."""

    @pytest.mark.parametrize("inflight", ["redispatch", "shed"])
    def test_salvaged_arrivals_are_repriced_as_their_own_model(self, monkeypatch, inflight):
        tag_of, resubmitted, priced_as = {}, [], {}
        submit = ReplicaServer.submit
        segment_batch = ReplicaServer._segment_batch

        def recording_submit(self, arrival_s, model_name=None):
            if arrival_s in tag_of:
                resubmitted.append((arrival_s, model_name))
            else:
                tag_of[arrival_s] = model_name
            return submit(self, arrival_s, model_name)

        def recording_segment_batch(self, times, tags):
            segments = segment_batch(self, times, tags)
            for group, model_name in segments:
                priced_as.update(dict.fromkeys(group, model_name))
            return segments

        monkeypatch.setattr(ReplicaServer, "submit", recording_submit)
        monkeypatch.setattr(ReplicaServer, "_segment_batch", recording_segment_batch)
        # DLRM(6) executes a 32-batch twice as slow as DLRM(1): an arrival
        # priced as the wrong model would finish at the wrong time.
        mix = Workload(
            arrivals=PoissonArrivals(rate_qps=20_000.0),
            mix=TrafficMix.of((DLRM1, 1.0), (DLRM6, 1.0)),
            name="mix",
        )
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM1,
            FleetSpec(replicas=2, max_replicas=2, batching=BATCHING),
        )
        report = cluster.serve_workload(
            mix,
            num_requests=NUM_REQUESTS,
            seed=SEED,
            faults=parse_fault_schedule(
                f"crash:at=0.01,replica=0,restart=0.005,inflight={inflight}"
            ),
        )

        outcome = cluster.last_outcome
        assert outcome.scheduled == outcome.completed + outcome.shed == NUM_REQUESTS
        assert len(tag_of) == NUM_REQUESTS
        assert set(tag_of.values()) == {"DLRM(1)", "DLRM(6)"}
        (incident,) = report.incidents.incidents
        # Every priced arrival was priced as its own model; a salvaged one
        # is priced again after its re-dispatch, and that pricing is last.
        assert all(priced_as[time] == tag_of[time] for time in priced_as)
        if inflight == "redispatch":
            assert outcome.shed == 0
            assert len(resubmitted) == incident.redispatched_requests > 0
            assert {model_name for _, model_name in resubmitted} == {"DLRM(1)", "DLRM(6)"}
            assert all(model_name == tag_of[time] for time, model_name in resubmitted)
            assert priced_as == tag_of
        else:
            assert resubmitted == []
            assert outcome.shed == incident.shed_requests > 0


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
        (windows,) = measure_incidents(degraded, SLA_S).windows
        assert windows.incident.kind == "brownout"
        assert windows.sla_during < 1.0

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
            (1, "07b35be257b9f852498881720d9658b782bbd3eebbaa33bfc7478b0207420b5d"),
            (2, "d1740bdf8b9d5fbd7769d12cfb9cb2a8e3be67b178a417cc824e0ae91cbfc787"),
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
        # A lone replica's crash leaves nothing to complete during it.
        (windows,) = measure_incidents(report, SLA_S).windows
        assert (windows.sla_during is None) == (replicas == 1)


def incidents_total(report):
    return report.incidents.total_shed
