"""Property-based conservation invariants under arbitrary fault schedules.

Whatever the schedule throws at the fleet — crashes with or without
restarts, shedding or re-dispatching in-flight work, rate-driven fault
storms — one identity must hold: every scheduled request is either
completed or counted as shed, and the incident report's ledger agrees
with the stream outcome's.  And whatever the lifecycle does, the
dispatcher's candidates at every routed arrival are exactly the ``active``
pool slots, in index order.
"""

import contextlib
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.backends import get_backend
from repro.chaos import Brownout, FaultSchedule, PoissonFaults, ReplicaCrash
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.serving import (
    Fleet,
    FleetSpec,
    QueueDepthPolicy,
    RoundRobinDispatcher,
    ScheduledPolicy,
    TimeoutBatching,
)
from repro.serving.autoscale import _AutoscaleController
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)
NUM_REQUESTS = 500


@st.composite
def crash_specs(draw):
    return ReplicaCrash(
        at_s=draw(st.floats(min_value=0.001, max_value=0.03)),
        restart_after_s=draw(
            st.one_of(st.none(), st.floats(min_value=0.001, max_value=0.02))
        ),
        on_inflight=draw(st.sampled_from(["redispatch", "shed"])),
    )


@st.composite
def brownout_specs(draw):
    return Brownout(
        at_s=draw(st.floats(min_value=0.001, max_value=0.03)),
        duration_s=draw(st.floats(min_value=0.002, max_value=0.02)),
        replica=0,
        latency_factor=draw(st.floats(min_value=1.5, max_value=6.0)),
    )


@st.composite
def poisson_storms(draw):
    return PoissonFaults(
        template=ReplicaCrash(
            at_s=0.0,
            restart_after_s=draw(st.floats(min_value=0.002, max_value=0.01)),
            on_inflight=draw(st.sampled_from(["redispatch", "shed"])),
        ),
        rate_hz=draw(st.floats(min_value=10.0, max_value=80.0)),
        end_s=draw(st.floats(min_value=0.01, max_value=0.05)),
        seed=draw(st.integers(min_value=0, max_value=1_000)),
    )


SCHEDULES = st.lists(
    st.one_of(crash_specs(), brownout_specs(), poisson_storms()),
    min_size=1,
    max_size=3,
).map(lambda faults: FaultSchedule(faults, sla_s=5e-3))


def run(schedule, seed, elastic, dispatcher=None):
    cluster = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM1,
        FleetSpec(
            policy=(
                QueueDepthPolicy(high_watermark=24.0, low_watermark=2.0, cooldown_s=0.01)
                if elastic
                else None
            ),
            min_replicas=1,
            max_replicas=3,
            replicas=2,
            control_interval_s=5e-3,
            warmup_s=2e-3,
            batching=BATCHING,
            dispatcher=dispatcher,
        ),
    )
    report = cluster.serve_workload(
        Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady"),
        num_requests=NUM_REQUESTS,
        seed=seed,
        faults=schedule,
    )
    return cluster, report


class TestConservation:
    @given(
        schedule=SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**16),
        elastic=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    # A drained slot reaped before the crash: its billing stop is back-dated,
    # so replica-seconds must come from the final intervals (never negative).
    @example(
        schedule=FaultSchedule([ReplicaCrash(at_s=0.02734375)], sla_s=5e-3),
        seed=0,
        elastic=True,
    )
    # The autoscaler reclaims the crashed slot before its restart, and the
    # outage outlives the closed record: its sheds still reach the ledger.
    @example(
        schedule=FaultSchedule(
            [
                PoissonFaults(
                    template=ReplicaCrash(
                        at_s=0.0, restart_after_s=0.002, on_inflight="redispatch"
                    ),
                    rate_hz=35.0,
                    end_s=0.03125,
                    seed=0,
                )
            ],
            sla_s=5e-3,
        ),
        seed=2222,
        elastic=True,
    )
    def test_arrivals_equal_completed_plus_shed(self, schedule, seed, elastic):
        cluster, report = run(schedule, seed, elastic)
        outcome = cluster.last_outcome
        # The conservation identity, relaxed only by explicit shedding.
        assert outcome.scheduled == NUM_REQUESTS
        assert outcome.completed + outcome.shed == NUM_REQUESTS
        assert report.completed_requests == outcome.completed
        assert (
            sum(replica.completed_requests for replica in report.per_replica)
            == outcome.completed
        )
        # The incident ledger agrees with the stream's shed counter.
        incidents = report.incidents
        assert incidents is not None
        assert incidents.total_shed == outcome.shed
        assert incidents.total_shed >= 0
        assert incidents.total_redispatched >= 0
        # Latency samples exist for exactly the completed requests.
        assert len(report.latency.samples_s) == outcome.completed
        # Every incident window is well-formed.
        for incident in incidents.incidents:
            assert incident.start_s >= 0.0
            assert incident.end_s >= incident.start_s
            assert 0.0 <= incident.sla_during <= 1.0
            assert incident.recovery_replica_seconds >= 0.0

    @given(
        schedule=SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_equal_seeds_equal_outcomes(self, schedule, seed):
        first_cluster, first = run(schedule, seed, elastic=True)
        second_cluster, second = run(schedule, seed, elastic=True)
        assert first_cluster.last_outcome == second_cluster.last_outcome
        assert first.latency.samples_s.tolist() == second.latency.samples_s.tolist()
        assert first.incidents == second.incidents


class _RecordingDispatcher(RoundRobinDispatcher):
    """Round-robin that remembers the candidates of its latest choice."""

    candidates = None

    def select(self, replicas, request, now):
        self.candidates = list(replicas)
        return super().select(replicas, request, now)


@contextlib.contextmanager
def checked_routing(tally):
    """Check every routed arrival's candidates; tally lifecycle transitions."""
    route, set_state = _AutoscaleController.route, _AutoscaleController._set_state

    def checked_route(self, request):
        expected = [
            replica
            for replica, lifecycle in zip(self.replicas, self.lifecycles)
            if lifecycle.state == "active"
        ]
        dispatcher = self.pool.dispatcher
        dispatcher.candidates = None
        chosen = route(self, request)
        if expected:
            assert dispatcher.candidates is not None
            assert len(dispatcher.candidates) == len(expected)
            assert all(a is b for a, b in zip(dispatcher.candidates, expected))
        else:  # total outage: the shed sink takes the arrival, no dispatch
            assert dispatcher.candidates is None
        tally["routed"] += 1
        return chosen

    def counted_set_state(self, index, state):
        tally[self.lifecycles[index].state, state] += 1
        set_state(self, index, state)

    _AutoscaleController.route = checked_route
    _AutoscaleController._set_state = counted_set_state
    try:
        yield
    finally:
        _AutoscaleController.route = route
        _AutoscaleController._set_state = set_state


class TestActiveReplicaList:
    @given(
        schedule=SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**16),
        elastic=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_candidates_are_the_active_replicas(self, schedule, seed, elastic):
        tally = Counter()
        with checked_routing(tally):
            run(schedule, seed, elastic, dispatcher=_RecordingDispatcher())
        assert tally["routed"] >= NUM_REQUESTS

    def test_every_lifecycle_transition_keeps_the_list_exact(self):
        """Scale-up, drain, warm-up cancel, crash and restore, all in one run."""
        tally = Counter()
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM1,
            FleetSpec(
                policy=ScheduledPolicy(
                    [(0.0, 1), (0.004, 4), (0.006, 2), (0.012, 4), (0.021, 3), (0.03, 1), (0.04, 3)]
                ),
                min_replicas=1,
                max_replicas=4,
                control_interval_s=1e-3,
                warmup_s=3e-3,
                batching=BATCHING,
                dispatcher=_RecordingDispatcher(),
            ),
        )
        faults = FaultSchedule(
            [
                ReplicaCrash(at_s=0.016),
                ReplicaCrash(at_s=0.0301, replica=1, restart_after_s=0.002, warmup_s=0.001),
            ],
            sla_s=5e-3,
        )
        with checked_routing(tally):
            report = cluster.serve_workload(
                Workload(arrivals=PoissonArrivals(rate_qps=30_000.0), name="steady"),
                num_requests=1_500,
                seed=3,
                faults=faults,
            )
        assert tally["routed"] >= 1_500
        assert tally["stopped", "starting"] > 0  # scale-up (with warm-up)
        assert tally["starting", "active"] > 0  # warm-up completes
        assert tally["active", "draining"] > 0  # drain
        assert tally["draining", "stopped"] > 0  # drained replica reaped
        assert tally["starting", "stopped"] > 0  # warm-up cancel
        assert tally["active", "stopped"] > 0  # crash of an active replica
        assert report.autoscale.crashes == 2
        assert report.autoscale.restarts == 1  # restore
