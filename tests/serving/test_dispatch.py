"""Tests for the pluggable request dispatchers."""

import pytest

from repro.config import DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError
from repro.serving import (
    Dispatcher,
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    ReplicaSpec,
    RoundRobinDispatcher,
    TimeoutBatching,
)
from repro.workloads import PoissonArrivals

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)

ALL_DISPATCHERS = [
    RoundRobinDispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
]


def stream(rate_qps=40_000, n=400, seed=2):
    return PoissonArrivals(rate_qps=rate_qps).generate(num_requests=n, seed=seed)


class TestConservation:
    @pytest.mark.parametrize("dispatcher_cls", ALL_DISPATCHERS)
    def test_every_request_served_exactly_once(self, dispatcher_cls):
        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=3, batching=BATCHING, dispatcher=dispatcher_cls()),
        )
        report = cluster.serve(stream())
        assert report.completed_requests == 400
        assert len(report.latency) == 400
        assert sum(r.completed_requests for r in report.per_replica) == 400

    @pytest.mark.parametrize("dispatcher_cls", ALL_DISPATCHERS)
    def test_heterogeneous_fleet_conserves_requests(self, dispatcher_cls):
        specs = [
            ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
            ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
        ]
        cluster = Fleet(specs, DLRM2, FleetSpec(dispatcher=dispatcher_cls(), batching=BATCHING))
        report = cluster.serve(stream())
        assert report.completed_requests == 400


class TestDeterminism:
    @pytest.mark.parametrize("dispatcher_cls", ALL_DISPATCHERS)
    def test_same_stream_same_result(self, dispatcher_cls):
        """Repeated serves through one cluster object must be identical —
        dispatcher state (round-robin cursor, power-of-two RNG) resets."""
        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=3, batching=BATCHING, dispatcher=dispatcher_cls()),
        )
        requests = stream(seed=6)
        first = cluster.serve(requests)
        second = cluster.serve(requests)
        assert (first.latency.samples_s == second.latency.samples_s).all()
        assert first.latency.p99_s == second.latency.p99_s

    def test_power_of_two_seed_controls_choices(self):
        requests = stream(seed=4)

        def serve(seed):
            return Fleet(
                [
                    ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
                    ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
                ],
                DLRM2,
                FleetSpec(dispatcher=PowerOfTwoChoicesDispatcher(seed=seed), batching=BATCHING),
            ).serve(requests)

        assert (
            serve(0).latency.samples_s == serve(0).latency.samples_s
        ).all()
        with pytest.raises(SimulationError):
            PowerOfTwoChoicesDispatcher(seed=-1)


class TestRouting:
    def test_round_robin_cycles_indices(self):
        # Widely spaced arrivals: each replica gets every third request.
        requests = stream(rate_qps=50.0, n=6, seed=0)
        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=3, batching=BATCHING, dispatcher=RoundRobinDispatcher()),
        )
        report = cluster.serve(requests)
        assert [r.completed_requests for r in report.per_replica] == [2, 2, 2]

    def test_jsq_prefers_idle_replicas(self):
        # Under load, JSQ must never leave one replica idle while another
        # holds more than a full batch backlog.
        cluster = Fleet(
            CPUOnlyRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=4, batching=BATCHING, dispatcher=JoinShortestQueueDispatcher()),
        )
        report = cluster.serve(stream(rate_qps=60_000, n=600, seed=8))
        counts = [r.completed_requests for r in report.per_replica]
        assert max(counts) - min(counts) < 150  # roughly balanced

    def test_least_loaded_sends_more_work_to_faster_device(self):
        specs = [
            ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
            ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
        ]
        cluster = Fleet(
            specs,
            DLRM2,
            FleetSpec(dispatcher=LeastLoadedDispatcher(), batching=BATCHING),
        )
        report = cluster.serve(stream(rate_qps=60_000, n=800, seed=3))
        cpu_report = next(r for r in report.per_replica if r.design_point == "CPU-only")
        centaur_report = next(r for r in report.per_replica if r.design_point == "Centaur")
        assert centaur_report.completed_requests > cpu_report.completed_requests

    def test_jsq_beats_round_robin_under_skewed_service_times(self):
        """The refactor's payoff: with a slow and a fast replica, blind
        round-robin overloads the slow device while JSQ routes around it."""
        specs = [
            ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
            ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
        ]
        requests = stream(rate_qps=60_000, n=2000, seed=3)
        round_robin = Fleet(
            specs,
            DLRM2,
            FleetSpec(dispatcher=RoundRobinDispatcher(), batching=BATCHING),
        ).serve(requests)
        shortest_queue = Fleet(
            specs,
            DLRM2,
            FleetSpec(dispatcher=JoinShortestQueueDispatcher(), batching=BATCHING),
        ).serve(requests)
        assert shortest_queue.latency.p99_s < round_robin.latency.p99_s
        assert shortest_queue.latency.mean_s < round_robin.latency.mean_s

    def test_invalid_dispatcher_index_rejected(self):
        class BrokenDispatcher(Dispatcher):
            name = "broken"

            def select(self, replicas, request, now):
                return len(replicas)  # out of range

        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=2, batching=BATCHING, dispatcher=BrokenDispatcher()),
        )
        with pytest.raises(SimulationError):
            cluster.serve(stream(n=10))

    def test_dispatcher_name_lands_in_report(self):
        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=2, batching=BATCHING, dispatcher=JoinShortestQueueDispatcher()),
        )
        report = cluster.serve(stream(n=50))
        assert report.dispatcher == "join-shortest-queue"
