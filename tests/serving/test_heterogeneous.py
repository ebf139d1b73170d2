"""Tests for heterogeneous replica fleets."""

import pytest

from repro.config import DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError
from repro.gpu import CPUGPURunner
from repro.serving import (
    CloseOnFullBatching,
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    ReplicaSpec,
    TimeoutBatching,
)
from repro.workloads import PoissonArrivals

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)


def stream(rate_qps=40_000, n=400, seed=2):
    return PoissonArrivals(rate_qps=rate_qps).generate(num_requests=n, seed=seed)


def mixed_specs():
    return [
        ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
        ReplicaSpec(CPUGPURunner(HARPV2_SYSTEM)),
        ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
    ]


class TestFleetComposition:
    def test_mixed_fleet_serves_and_labels_design_points(self):
        cluster = Fleet(mixed_specs(), DLRM2, FleetSpec(batching=BATCHING))
        report = cluster.serve(stream())
        assert report.completed_requests == 400
        assert report.num_replicas == 3
        assert report.design_point == "CPU-only+CPU-GPU+Centaur"
        served_points = {r.design_point for r in report.per_replica}
        assert served_points == {"CPU-only", "CPU-GPU", "Centaur"}

    def test_bare_runners_accepted_as_specs(self):
        cluster = Fleet(
            [CPUOnlyRunner(HARPV2_SYSTEM), CentaurRunner(HARPV2_SYSTEM)],
            DLRM2,
            FleetSpec(batching=BATCHING),
        )
        report = cluster.serve(stream(n=100))
        assert report.completed_requests == 100
        assert report.design_point == "CPU-only+Centaur"

    def test_per_replica_batching_override(self):
        """A replica can run its own policy while the rest use the default."""
        specs = [
            ReplicaSpec(
                CentaurRunner(HARPV2_SYSTEM),
                batching=CloseOnFullBatching(batch_size=16),
            ),
            ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
        ]
        cluster = Fleet(specs, DLRM2, FleetSpec(batching=BATCHING))
        report = cluster.serve(stream(n=200))
        assert report.completed_requests == 200
        greedy = next(r for r in report.per_replica if r.design_point == "Centaur")
        windowed = next(r for r in report.per_replica if r.design_point == "CPU-only")
        # The greedy policy dispatches eagerly, so it forms smaller batches
        # than a 1 ms window at the same per-replica load.
        assert greedy.average_batch_size < windowed.average_batch_size

    def test_validation(self):
        with pytest.raises(SimulationError):
            Fleet([], DLRM2)
        cluster = Fleet(mixed_specs(), DLRM2, FleetSpec(batching=BATCHING))
        with pytest.raises(SimulationError):
            cluster.serve([])


class TestAgainstSingleDevice:
    def test_single_replica_fleet_matches_serving_simulator(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        requests = stream(rate_qps=20_000, n=150, seed=9)
        single = Fleet(runner, DLRM2, FleetSpec(batching=BATCHING)).serve(requests)
        fleet = Fleet([ReplicaSpec(runner)], DLRM2, FleetSpec(batching=BATCHING)).serve(requests)
        assert (fleet.latency.samples_s == single.latency.samples_s).all()
        assert fleet.total_energy_joules == pytest.approx(single.energy_joules, rel=1e-12)

    def test_adding_a_centaur_replica_to_a_cpu_fleet_cuts_the_tail(self):
        """The provisioning story: augmenting a CPU fleet with one Centaur
        socket under smart dispatch improves the tail at fixed load."""
        requests = stream(rate_qps=50_000, n=1500, seed=17)
        cpu_only = Fleet(
            [ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)) for _ in range(2)],
            DLRM2,
            FleetSpec(dispatcher=JoinShortestQueueDispatcher(), batching=BATCHING),
        ).serve(requests)
        augmented = Fleet(
            [
                ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
                ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)),
                ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)),
            ],
            DLRM2,
            FleetSpec(dispatcher=JoinShortestQueueDispatcher(), batching=BATCHING),
        ).serve(requests)
        assert augmented.latency.p99_s < cpu_only.latency.p99_s

    def test_determinism_under_fixed_seed(self):
        cluster = Fleet(
            mixed_specs(),
            DLRM2,
            FleetSpec(dispatcher=JoinShortestQueueDispatcher(), batching=BATCHING),
        )
        first = cluster.serve_poisson(rate_qps=30_000, duration_s=0.05, seed=21)
        second = cluster.serve_poisson(rate_qps=30_000, duration_s=0.05, seed=21)
        assert (first.latency.samples_s == second.latency.samples_s).all()
        assert first.completed_requests == second.completed_requests
