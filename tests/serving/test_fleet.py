"""The one serving front-end: every recipe builds a plain Fleet."""

from dataclasses import replace

import pytest

from repro.chaos import FaultSchedule, ReplicaCrash
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.experiment import Experiment
from repro.serving import (
    ClusterReport,
    Fleet,
    FleetSpec,
    QueueDepthPolicy,
    ReplicaSpec,
    ServingReport,
    TimeoutBatching,
)
from repro.serving.cluster import ReplicaPool
from repro.serving.sharded import ShardGroup
from repro.sharding import CacheConfig
from repro.workloads import ConstantRateArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
STEADY = Workload(arrivals=ConstantRateArrivals(rate_qps=20_000.0), name="steady")
CRASH = FaultSchedule([ReplicaCrash(at_s=0.005, restart_after_s=0.005)])


def serve(spec, faults=None):
    fleet = spec.build("cpu", DLRM2, HARPV2_SYSTEM)
    report = fleet.serve_workload(STEADY, num_requests=400, seed=0, faults=faults)
    return fleet, report


class TestOneFleetClass:
    def test_no_front_end_subclasses_fleet(self):
        assert Fleet.__subclasses__() == []

    @pytest.mark.parametrize(
        "spec, faults, part, report_type",
        [
            (FleetSpec(batching=BATCHING), None, ReplicaPool, ServingReport),
            (FleetSpec(replicas=3, batching=BATCHING), None, ReplicaPool, ClusterReport),
            (
                FleetSpec(policy=QueueDepthPolicy(), max_replicas=4, batching=BATCHING),
                None,
                ReplicaPool,
                ClusterReport,
            ),
            (FleetSpec(replicas=2, batching=BATCHING), CRASH, ReplicaPool, ClusterReport),
            (FleetSpec(shards=2, batching=BATCHING), None, ShardGroup, ClusterReport),
            (
                FleetSpec(cache=CacheConfig(policy="lru", capacity_rows=256)),
                None,
                ShardGroup,
                ClusterReport,
            ),
        ],
        ids=["one-replica", "n-replicas", "elastic", "under-faults", "sharded", "cached"],
    )
    def test_every_recipe_kind_builds_a_plain_fleet(self, spec, faults, part, report_type):
        fleet, report = serve(spec, faults)
        assert type(fleet) is Fleet
        assert type(fleet.part) is part
        assert type(report) is report_type
        assert (getattr(report, "incidents", None) is not None) == (faults is not None)

    def test_mixed_pool_serves_statically(self):
        fleet = Fleet(["cpu", "centaur"], DLRM2, FleetSpec(batching=BATCHING), HARPV2_SYSTEM)
        report = fleet.serve_workload(STEADY, num_requests=200, seed=0)
        assert report.num_replicas == 2
        with pytest.raises(ConfigurationError, match="template device"):
            fleet.serve_workload(STEADY, num_requests=200, seed=0, faults=CRASH)
        with pytest.raises(ConfigurationError, match="template device"):
            Fleet(
                [ReplicaSpec("cpu")],
                DLRM2,
                FleetSpec(policy=QueueDepthPolicy()),
                HARPV2_SYSTEM,
            )

    def test_shard_group_takes_one_backend(self):
        with pytest.raises(ConfigurationError, match="one backend"):
            Fleet(["cpu", "cpu"], DLRM2, FleetSpec(shards=2), HARPV2_SYSTEM)


class TestReplicasUnderControl:
    """``replicas`` sizes an elastic fleet's start as it sizes a static one."""

    def test_experiment_under_faults_serves_every_replica(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu")
            .models(DLRM2)
            .workloads(STEADY)
            .serve(FleetSpec(replicas=4), faults=CRASH, num_requests=400, seed=0)
        )
        report = grid.get("cpu", "steady")
        assert report.num_replicas == 4
        assert report.autoscale.timeline[0] == (0.0, 4)
        assert report.incidents is not None

    def test_policy_starts_at_replicas(self):
        _, report = serve(
            FleetSpec(replicas=3, policy=QueueDepthPolicy(), max_replicas=4, batching=BATCHING)
        )
        assert report.autoscale.timeline[0] == (0.0, 3)

    def test_replicas_left_at_one_start_at_the_floor(self):
        _, report = serve(FleetSpec(min_replicas=2, batching=BATCHING), CRASH)
        assert report.autoscale.timeline[0] == (0.0, 2)

    def test_static_pool_ignores_the_elastic_bounds(self):
        _, report = serve(FleetSpec(replicas=12, max_replicas=4, batching=BATCHING))
        assert report.num_replicas == 12
        assert report.autoscale is None

    @pytest.mark.parametrize("replicas, bounds", [(9, (1, 8)), (2, (3, 8))])
    def test_start_outside_the_bounds_raises(self, replicas, bounds):
        low, high = bounds
        spec = FleetSpec(replicas=replicas, min_replicas=low, max_replicas=high)
        with pytest.raises(SimulationError, match="must lie in"):
            replace(spec, policy=QueueDepthPolicy()).build("cpu", DLRM2, HARPV2_SYSTEM)
        fleet = spec.build("cpu", DLRM2, HARPV2_SYSTEM)
        with pytest.raises(SimulationError, match="must lie in"):
            fleet.serve_workload(STEADY, num_requests=50, seed=0, faults=CRASH)
