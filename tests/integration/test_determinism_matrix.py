"""Determinism matrix: same seed => identical serving outcome, always.

Every (dispatcher x batching x autoscaler) combination is run twice from
scratch — fresh backend, cluster, policy and workload objects each time —
and the two runs must agree bit for bit on the :class:`StreamOutcome`
counters, the full latency sample array, the energy totals and (when
autoscaled) the replica timeline.

Because each test case builds everything it touches and compares only
within itself, the assertion holds under any test ordering — including the
work-stealing schedules ``pytest-xdist`` produces — and any leakage of
mutable global state between cells shows up as a cross-run mismatch here.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.backends import get_backend
from repro.chaos import Brownout, FaultSchedule, PoissonFaults, ReplicaCrash
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import (
    AdaptiveWindowBatching,
    CloseOnFullBatching,
    EWMAPolicy,
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    QueueDepthPolicy,
    RoundRobinDispatcher,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    TimeoutBatching,
)
from repro.workloads import OnOffArrivals, UpdateProcess, Workload

SEED = 11
NUM_REQUESTS = 1_200

DISPATCHERS = {
    "round-robin": RoundRobinDispatcher,
    "jsq": JoinShortestQueueDispatcher,
    "least-loaded": LeastLoadedDispatcher,
    "p2c": lambda: PowerOfTwoChoicesDispatcher(seed=5),
}

BATCHINGS = {
    "timeout": lambda: TimeoutBatching(window_s=1e-3, max_batch_size=64),
    "close-on-full": lambda: CloseOnFullBatching(batch_size=64),
    "adaptive": lambda: AdaptiveWindowBatching(base_window_s=2e-3, max_batch_size=64),
}

AUTOSCALERS = {
    "static": None,
    "queue": lambda: QueueDepthPolicy(
        high_watermark=24.0, low_watermark=2.0, cooldown_s=0.01
    ),
    "util": lambda: TargetUtilizationPolicy(target=0.6, deadband=0.1, cooldown_s=0.01),
    "ewma": lambda: EWMAPolicy(alpha=0.4, headroom=1.2, replica_capacity_qps=20_000.0),
    "schedule": lambda: ScheduledPolicy([(0.0, 2), (0.02, 3), (0.05, 1)]),
}


FAULTS = {
    "crash-restart": lambda: FaultSchedule(
        [ReplicaCrash(at_s=0.01, restart_after_s=0.008)], sla_s=5e-3
    ),
    "crash-shed": lambda: FaultSchedule(
        [ReplicaCrash(at_s=0.012, on_inflight="shed")], sla_s=5e-3
    ),
    "brownout": lambda: FaultSchedule(
        [Brownout(at_s=0.01, duration_s=0.015, replica=0, latency_factor=3.0)],
        sla_s=5e-3,
    ),
    "poisson-storm": lambda: FaultSchedule(
        [
            PoissonFaults(
                template=ReplicaCrash(at_s=0.0, restart_after_s=0.005),
                rate_hz=50.0,
                end_s=0.04,
                seed=3,
            )
        ],
        sla_s=5e-3,
    ),
}


def _run(
    dispatcher_key: str,
    batching_key: str,
    autoscaler_key: str,
    fault_key: str = None,
):
    """One complete serving run built entirely from fresh objects."""
    backend = get_backend("cpu", HARPV2_SYSTEM)
    workload = Workload(
        arrivals=OnOffArrivals(
            on_rate_qps=50_000.0, off_rate_qps=10_000.0, mean_on_s=0.01, mean_off_s=0.01
        ),
        name="bursty",
    )
    policy_factory = AUTOSCALERS[autoscaler_key]
    cluster = Fleet(
        backend,
        DLRM2,
        FleetSpec(
            policy=policy_factory() if policy_factory is not None else None,
            min_replicas=2,
            max_replicas=4,
            replicas=2,
            control_interval_s=5e-3,
            warmup_s=2e-3,
            dispatcher=DISPATCHERS[dispatcher_key](),
            batching=BATCHINGS[batching_key](),
        ),
    )
    report = cluster.serve_workload(
        workload,
        num_requests=NUM_REQUESTS,
        seed=SEED,
        faults=FAULTS[fault_key]() if fault_key is not None else None,
    )
    return report, cluster.last_outcome


def _fingerprint(report, outcome):
    autoscale = report.autoscale
    return (
        (outcome.scheduled, outcome.completed, outcome.peak_resident),
        report.completed_requests,
        report.num_replicas,
        tuple(
            (replica.completed_requests, replica.device_busy_s, replica.energy_joules)
            for replica in report.per_replica
        ),
        report.latency.samples_s.tobytes(),
        report.total_energy_joules,
        autoscale.timeline if autoscale is not None else None,
        autoscale.replica_seconds if autoscale is not None else None,
    )


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("batching_key", sorted(BATCHINGS))
@pytest.mark.parametrize("autoscaler_key", sorted(AUTOSCALERS))
def test_same_seed_same_outcome(dispatcher_key, batching_key, autoscaler_key):
    first_report, first_outcome = _run(dispatcher_key, batching_key, autoscaler_key)
    second_report, second_outcome = _run(dispatcher_key, batching_key, autoscaler_key)

    assert first_outcome == second_outcome
    assert _fingerprint(first_report, first_outcome) == _fingerprint(
        second_report, second_outcome
    )
    np.testing.assert_array_equal(
        first_report.latency.samples_s, second_report.latency.samples_s
    )
    # Conservation holds in every cell of the matrix.
    assert first_outcome.scheduled == first_outcome.completed == NUM_REQUESTS


UPDATE_STREAMS = {
    "inval-slow": lambda: UpdateProcess(
        arrivals=2_000, rows_per_update=8, mode="invalidate"
    ),
    "inval-storm": lambda: UpdateProcess(
        arrivals=20_000, rows_per_update=8, mode="invalidate"
    ),
    "write-through": lambda: UpdateProcess(
        arrivals=20_000, rows_per_update=8, mode="write-through"
    ),
}


def _run_sharded_updates(policy_key: str, stream_key: str):
    """One sharded serving run under an update stream, fresh objects only."""
    from repro.config.models import homogeneous_dlrm
    from repro.sharding import CacheConfig
    from repro.workloads import PoissonArrivals, Workload
    from repro.workloads.traces import ZipfianTrace

    model = homogeneous_dlrm(
        name="matrix-updates",
        num_tables=4,
        rows_per_table=5_000,
        gathers_per_table=8,
        embedding_dim=32,
    )
    group = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        model,
        FleetSpec(
            shards=2,
            strategy="row",
            cache=CacheConfig(policy=policy_key, capacity_rows=1_024),
            batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
            updates=UPDATE_STREAMS[stream_key](),
        ),
        HARPV2_SYSTEM,
    )
    workload = Workload(
        arrivals=PoissonArrivals(rate_qps=30_000.0),
        trace=ZipfianTrace(alpha=1.05),
        name="zipf",
    )
    return group.serve_workload(workload, num_requests=800, seed=SEED)


@pytest.mark.parametrize("policy_key", ["lru", "lfu"])
@pytest.mark.parametrize("stream_key", sorted(UPDATE_STREAMS))
def test_same_seed_same_outcome_under_update_streams(policy_key, stream_key):
    """Cache policy x update stream: seeded pushes are bit-for-bit
    reproducible across fresh-object runs — pickled *untouched* (stat
    accessors memoize into instance state, so the snapshot comes first)."""
    first = _run_sharded_updates(policy_key, stream_key)
    second = _run_sharded_updates(policy_key, stream_key)
    first_blob = pickle.dumps(first, protocol=4)
    second_blob = pickle.dumps(second, protocol=4)
    assert hashlib.sha256(first_blob).hexdigest() == hashlib.sha256(
        second_blob
    ).hexdigest()
    assert pickle.dumps(first.sharding, protocol=4) == pickle.dumps(
        second.sharding, protocol=4
    )
    # The stream actually drove the caches in every cell.
    assert first.sharding.update_events > 0
    assert first.completed_requests == 800


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("autoscaler_key", sorted(AUTOSCALERS))
@pytest.mark.parametrize("fault_key", sorted(FAULTS))
def test_same_seed_same_outcome_under_faults(
    dispatcher_key, autoscaler_key, fault_key
):
    """Dispatcher x autoscaler x fault type: bit-for-bit reproducible, and
    the conservation identity relaxes only by the explicit shed count."""
    first_report, first_outcome = _run(
        dispatcher_key, "timeout", autoscaler_key, fault_key
    )
    second_report, second_outcome = _run(
        dispatcher_key, "timeout", autoscaler_key, fault_key
    )

    assert first_outcome == second_outcome
    assert _fingerprint(first_report, first_outcome) == _fingerprint(
        second_report, second_outcome
    )
    # Incident reports are byte-identical across fresh-object runs.
    assert first_report.incidents is not None
    assert hashlib.sha256(
        pickle.dumps(first_report.incidents, protocol=4)
    ).hexdigest() == hashlib.sha256(
        pickle.dumps(second_report.incidents, protocol=4)
    ).hexdigest()
    # Chaos accounting is reflected in the autoscale report.
    assert first_report.autoscale.crashes == second_report.autoscale.crashes
    assert first_report.autoscale.restarts == second_report.autoscale.restarts
    # Conservation: arrivals == completed + shed, in every cell.
    assert first_outcome.scheduled == NUM_REQUESTS
    assert first_outcome.completed + first_outcome.shed == NUM_REQUESTS
    assert first_report.incidents.total_shed == first_outcome.shed
