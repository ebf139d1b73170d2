"""Each replica's completion record stays aligned with its executed batches.

A report derives every per-request latency from one record: the executed
segments and the arrival times of completed requests, in completion order.
Crash rollback, per-model segmenting and the brownout latency multiplier
all touch that record, so each must leave one latency per request that a
recorded segment executed.
"""

from repro.backends import get_backend
from repro.chaos import Brownout, FaultSchedule, ReplicaCrash
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.serving.metrics import pooled_completions
from repro.workloads import PoissonArrivals, TrafficMix, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
NUM_REQUESTS = 1_000
STEADY = Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady")


def serve(workload, faults=None, replicas=3):
    fleet = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM1,
        FleetSpec(replicas=replicas, max_replicas=replicas, batching=BATCHING),
    )
    report = fleet.serve_workload(workload, num_requests=NUM_REQUESTS, seed=4, faults=faults)
    return fleet, report


def assert_record_aligned(report):
    for replica in report.per_replica:
        executed = sum(batch.batch_size for batch in replica.executed_batches)
        assert len(replica.ordered_latency_s) == executed == replica.completed_requests
        times_s, _ = pooled_completions([replica])
        assert times_s.size == executed
    assert len(report.latency) == report.completed_requests


def test_crash_with_redispatch_rolls_the_record_back():
    fleet, report = serve(
        STEADY, FaultSchedule([ReplicaCrash(at_s=0.01, restart_after_s=0.005)])
    )
    (incident,) = report.incidents.incidents
    assert incident.redispatched_requests > 0
    assert fleet.last_outcome.completed == NUM_REQUESTS
    assert_record_aligned(report)


def test_brownout_keeps_the_record_aligned():
    _, report = serve(
        STEADY,
        FaultSchedule([Brownout(at_s=0.01, duration_s=0.02, replica=0, latency_factor=3.0)]),
    )
    assert report.completed_requests == NUM_REQUESTS
    assert_record_aligned(report)


def test_two_model_mix_records_one_entry_per_segment_request():
    workload = Workload(
        arrivals=PoissonArrivals(rate_qps=20_000.0),
        mix=TrafficMix.of((DLRM1, 0.5), (DLRM2, 0.5)),
    )
    _, report = serve(workload, replicas=2)
    assert report.completed_requests == NUM_REQUESTS
    # Some closed batch held both models and executed as two segments.
    assert any(
        first.ready_time_s == second.ready_time_s
        for replica in report.per_replica
        for first, second in zip(replica.executed_batches, replica.executed_batches[1:])
    )
    assert_record_aligned(report)
