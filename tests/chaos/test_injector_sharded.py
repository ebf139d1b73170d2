"""Fault injection on sharded groups: shard loss, failover, link windows."""

import pytest

from repro.backends import get_backend
from repro.chaos import (
    Brownout,
    FaultSchedule,
    LinkDegradation,
    ReplicaCrash,
    ShardLoss,
)
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import parse_cache_spec
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
WORKLOAD = Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady")
NUM_REQUESTS = 800
SEED = 4


def serve(faults, *, num_shards=4, cache=None):
    group = Fleet(
        get_backend("centaur", HARPV2_SYSTEM),
        DLRM2,
        FleetSpec(
            shards=num_shards,
            cache=parse_cache_spec(cache) if cache else None,
            batching=BATCHING,
        ),
        HARPV2_SYSTEM,
    )
    report = group.serve_workload(
        WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED, faults=faults
    )
    return group, report


class TestShardLoss:
    def test_promote_failover_concentrates_without_correctness_loss(self):
        _, report = serve(
            FaultSchedule(
                [ShardLoss(at_s=0.005, shard=1, restore_after_s=0.01)],
                window_s=5e-3,
            )
        )
        (incident,) = report.incidents.incidents
        assert incident.kind == "shard-loss"
        assert incident.target == "shard:1"
        assert incident.cleared
        assert incident.degraded_lookups == 0
        assert report.sharding.promoted_lookups > 0
        assert report.sharding.degraded_lookups == 0

    def test_rehash_failover_counts_correctness_loss(self):
        _, report = serve(
            FaultSchedule(
                [ShardLoss(at_s=0.005, shard=0, restore_after_s=0.01, failover="rehash")],
                window_s=5e-3,
            )
        )
        (incident,) = report.incidents.incidents
        assert incident.degraded_lookups > 0
        assert report.sharding.degraded_lookups == incident.degraded_lookups
        assert report.incidents.correctness_loss(report.sharding.total_lookups) > 0.0
        assert "rehash" in incident.note

    def test_unrestored_shard_loss_stays_open(self):
        _, report = serve(FaultSchedule([ShardLoss(at_s=0.005, shard=2)]))
        (incident,) = report.incidents.incidents
        assert not incident.cleared
        assert report.sharding.promoted_lookups > 0

    def test_restore_brings_a_cold_cache(self):
        group, report = serve(
            FaultSchedule([ShardLoss(at_s=0.005, shard=0, restore_after_s=0.005)]),
            cache="lru:rows=2048",
        )
        (incident,) = report.incidents.incidents
        assert incident.cleared
        # The run finished with cache statistics still continuous (the cold
        # swap inherits counters) and the cache stack still serving.
        assert report.sharding.cache.accesses > 0

    def test_cold_restore_prices_the_cache_refill(self):
        _, report = serve(
            FaultSchedule([ShardLoss(at_s=0.005, shard=0, restore_after_s=0.005)]),
            cache="lru:rows=2048",
        )
        (incident,) = report.incidents.incidents
        # Every row resident in the outgoing cache must be re-gathered
        # before the restored shard is warm again; that traffic is priced
        # through the backend's EMB cost model.
        assert 0 < incident.refill_rows <= 2_048
        assert incident.refill_s > 0.0
        assert incident.refill_energy_joules > incident.refill_s  # power > 1 W
        assert report.incidents.total_refill_rows == incident.refill_rows
        assert report.incidents.total_refill_s == incident.refill_s
        assert (
            report.incidents.total_refill_energy_joules
            == incident.refill_energy_joules
        )

    def test_restore_without_a_cache_has_nothing_to_refill(self):
        _, report = serve(
            FaultSchedule([ShardLoss(at_s=0.005, shard=0, restore_after_s=0.005)])
        )
        (incident,) = report.incidents.incidents
        assert incident.refill_rows == 0
        assert incident.refill_s == 0.0
        assert report.incidents.total_refill_rows == 0

    def test_price_refill_scales_with_resident_rows(self):
        import numpy as np

        from repro.serving.replica import ServiceModel
        from repro.serving.sharded import ShardedReplicaServer
        from repro.sharding.plan import make_plan
        from repro.sim.engine import Simulator

        backend = get_backend("centaur", HARPV2_SYSTEM)
        server = ShardedReplicaServer(
            Simulator(),
            ServiceModel(backend, DLRM2),
            BATCHING,
            plan=make_plan(DLRM2, 4, "table"),
            link=None,
            trace_model=None,
            trace_rng=np.random.default_rng(0),
        )
        assert server.price_refill(0) == (0.0, 0.0)
        one_s, one_j = server.price_refill(1)
        many_s, many_j = server.price_refill(1_000)
        assert one_s > 0.0 and one_j > 0.0
        assert many_s == pytest.approx(1_000 * one_s)
        assert many_j == pytest.approx(1_000 * one_j)

    def test_losing_every_shard_is_rejected_mid_run(self):
        schedule = FaultSchedule(
            [ShardLoss(at_s=0.004, shard=0), ShardLoss(at_s=0.006, shard=1)]
        )
        with pytest.raises(SimulationError):
            serve(schedule, num_shards=2)


class TestLinkDegradation:
    def test_link_window_slows_transfers_and_clears(self):
        _, degraded = serve(
            FaultSchedule(
                [
                    LinkDegradation(
                        at_s=0.0,
                        duration_s=10.0,
                        bandwidth_factor=0.1,
                        latency_factor=4.0,
                    )
                ]
            )
        )
        _, healthy = serve(None)
        assert (
            degraded.sharding.cross_shard_transfer_s
            > healthy.sharding.cross_shard_transfer_s
        )
        (incident,) = degraded.incidents.incidents
        assert incident.kind == "link"
        assert "slowdown=40" in incident.note

    def test_brownout_applies_to_the_single_logical_replica(self):
        _, degraded = serve(
            FaultSchedule(
                [Brownout(at_s=0.0, duration_s=10.0, latency_factor=6.0)]
            )
        )
        _, healthy = serve(None)
        assert degraded.latency.percentiles((99.0,))[0] > (
            healthy.latency.percentiles((99.0,))[0]
        )


class TestShardedValidation:
    def test_replica_crash_rejected_on_sharded_groups(self):
        with pytest.raises(ConfigurationError):
            serve(FaultSchedule([ReplicaCrash(at_s=0.01)]))

    def test_shard_loss_needs_multiple_shards(self):
        with pytest.raises(ConfigurationError):
            serve(FaultSchedule([ShardLoss(at_s=0.01, shard=0)]), num_shards=1)

    def test_shard_target_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            serve(FaultSchedule([ShardLoss(at_s=0.01, shard=9)]))

    def test_link_degradation_needs_multiple_shards(self):
        with pytest.raises(ConfigurationError):
            serve(
                FaultSchedule(
                    [LinkDegradation(at_s=0.01, duration_s=0.01, bandwidth_factor=0.5)]
                ),
                num_shards=1,
            )

    def test_brownout_replica_index_must_be_zero(self):
        with pytest.raises(ConfigurationError):
            serve(
                FaultSchedule(
                    [Brownout(at_s=0.01, duration_s=0.01, replica=2)]
                )
            )
