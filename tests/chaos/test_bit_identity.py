"""The identity contracts of the chaos subsystem.

Two guarantees pin the subsystem's cost to zero when unused and its output
to a pure function of its inputs:

* **Empty schedule is the identity** — serving with ``faults=None`` or an
  empty :class:`FaultSchedule` is *bit-identical* to the pre-chaos code
  path on every serving flavour (elastic fleet, static fleet, sharded
  group).  Reports hold numpy arrays, so the comparison uses exhaustive
  fingerprints, never dataclass ``==``.
* **Equal seeds, byte-identical incident reports** — two runs built from
  fresh objects with the same schedule and stream seed must pickle to the
  same bytes.
"""

import hashlib
import pickle

from repro.backends import get_backend
from repro.chaos import FaultSchedule, ReplicaCrash, ShardLoss
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.serving import Fleet, FleetSpec, QueueDepthPolicy, TimeoutBatching
from repro.sharding import parse_cache_spec
from repro.workloads import OnOffArrivals, PoissonArrivals, Workload

NUM_REQUESTS = 800
SEED = 13


def make_workload():
    return Workload(
        arrivals=OnOffArrivals(
            on_rate_qps=40_000.0, off_rate_qps=8_000.0, mean_on_s=0.01, mean_off_s=0.01
        ),
        name="bursty",
    )


def fingerprint(report, outcome=None):
    """Everything observable about a serving run, hashable-compact."""
    autoscale = report.autoscale
    return (
        (outcome.scheduled, outcome.completed, outcome.shed) if outcome else None,
        report.completed_requests,
        report.num_replicas,
        tuple(
            (
                replica.completed_requests,
                replica.device_busy_s,
                replica.energy_joules,
                replica.executed_batches,
            )
            for replica in report.per_replica
        ),
        report.latency.samples_s.tobytes(),
        report.total_energy_joules,
        report.replica_seconds,
        autoscale.timeline if autoscale is not None else None,
        report.sharding,
        report.incidents,
    )


class TestEmptyScheduleIsTheIdentity:
    def test_elastic_fleet_with_empty_schedule_matches_no_faults(self):
        def run(faults):
            cluster = Fleet(
                get_backend("cpu", HARPV2_SYSTEM),
                DLRM1,
                FleetSpec(
                    policy=QueueDepthPolicy(
                        high_watermark=24.0, low_watermark=2.0, cooldown_s=0.01
                    ),
                    min_replicas=1,
                    max_replicas=4,
                    control_interval_s=5e-3,
                    warmup_s=2e-3,
                    batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
                ),
            )
            report = cluster.serve_workload(
                make_workload(), num_requests=NUM_REQUESTS, seed=SEED, faults=faults
            )
            return fingerprint(report, cluster.last_outcome)

        baseline = run(None)
        assert run(FaultSchedule([])) == baseline
        # And the kwarg default is the same path as an explicit None.
        assert run(None) == baseline

    def test_static_fleet_with_empty_schedule_matches_cluster_simulator(self):
        batching = TimeoutBatching(window_s=1e-3, max_batch_size=64)
        backend = get_backend("cpu", HARPV2_SYSTEM)
        static = Fleet(
            backend,
            DLRM1,
            FleetSpec(replicas=3, batching=batching),
        ).serve_workload(make_workload(), num_requests=NUM_REQUESTS, seed=SEED)
        chaosless = Fleet(
            backend,
            DLRM1,
            FleetSpec(policy=None, min_replicas=1, max_replicas=3, replicas=3, batching=batching),
        ).serve_workload(
            make_workload(),
            num_requests=NUM_REQUESTS,
            seed=SEED,
            faults=FaultSchedule([]),
        )
        assert fingerprint(chaosless) == fingerprint(static)

    def test_sharded_group_with_empty_schedule_is_bit_identical(self):
        def run(faults):
            group = Fleet(
                get_backend("centaur", HARPV2_SYSTEM),
                DLRM2,
                FleetSpec(
                    shards=4,
                    cache=parse_cache_spec("lru:rows=2048"),
                    batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
                ),
                HARPV2_SYSTEM,
            )
            report = group.serve_workload(
                make_workload(), num_requests=NUM_REQUESTS, seed=SEED, faults=faults
            )
            return fingerprint(report)

        assert run(FaultSchedule([])) == run(None)


class TestByteIdenticalIncidentReports:
    @staticmethod
    def digest(report):
        return hashlib.sha256(
            pickle.dumps(report.incidents, protocol=4)
        ).hexdigest()

    def test_fleet_incident_reports_reproduce_byte_for_byte(self):
        def run():
            cluster = Fleet(
                get_backend("cpu", HARPV2_SYSTEM),
                DLRM1,
                FleetSpec(
                    policy=None,
                    min_replicas=1,
                    max_replicas=3,
                    replicas=3,
                    warmup_s=2e-3,
                    batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
                ),
            )
            return cluster.serve_workload(
                make_workload(),
                num_requests=NUM_REQUESTS,
                seed=SEED,
                faults=FaultSchedule(
                    [
                        ReplicaCrash(at_s=0.01, restart_after_s=0.01),
                        ReplicaCrash(at_s=0.03, on_inflight="shed"),
                    ],
                    sla_s=5e-3,
                ),
            )

        first, second = run(), run()
        assert first.incidents.incidents, "the drill must record incidents"
        assert self.digest(first) == self.digest(second)
        assert fingerprint(first) == fingerprint(second)

    def test_sharded_incident_reports_reproduce_byte_for_byte(self):
        def run():
            group = Fleet(
                get_backend("centaur", HARPV2_SYSTEM),
                DLRM2,
                FleetSpec(
                    shards=4,
                    cache=parse_cache_spec("lru:rows=2048"),
                    batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
                ),
                HARPV2_SYSTEM,
            )
            return group.serve_workload(
                Workload(
                    arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady"
                ),
                num_requests=NUM_REQUESTS,
                seed=SEED,
                faults=FaultSchedule(
                    [ShardLoss(at_s=0.005, shard=0, restore_after_s=0.01, failover="rehash")],
                    window_s=5e-3,
                ),
            )

        first, second = run(), run()
        assert first.incidents.total_degraded_lookups > 0
        assert self.digest(first) == self.digest(second)
        assert fingerprint(first) == fingerprint(second)
