"""Tests for sharded fleets: fan-out pricing, caching, equivalence."""

import numpy as np
import pytest

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError
from repro.serving import Fleet, FleetSpec, RoundRobinDispatcher, TimeoutBatching
from repro.sharding import CacheConfig
from repro.workloads import PoissonArrivals, Workload
from repro.workloads.mix import TrafficMix
from repro.workloads.traces import UniformTrace, WorkingSetTrace, ZipfianTrace, model_batch

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)


@pytest.fixture(scope="module")
def model():
    return homogeneous_dlrm(
        name="sharded-test",
        num_tables=4,
        rows_per_table=5_000,
        gathers_per_table=8,
        embedding_dim=32,
    )


def zipf_workload():
    return Workload(
        arrivals=PoissonArrivals(rate_qps=30_000),
        trace=ZipfianTrace(alpha=1.05),
    )


def serve(group, workload, n=1_500, seed=3):
    return group.serve_workload(workload, num_requests=n, seed=seed)


class TestUnshardedEquivalence:
    """1 shard + cache off must be bit-identical to the plain cluster path."""

    @pytest.mark.parametrize("trace", [UniformTrace(), ZipfianTrace(alpha=1.05)])
    def test_bit_identical_to_cluster_simulator(self, model, trace):
        workload = Workload(arrivals=PoissonArrivals(rate_qps=30_000), trace=trace)
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=1, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        sharded = serve(group, workload)
        cluster = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(replicas=1, batching=BATCHING, dispatcher=RoundRobinDispatcher()),
        )
        baseline = cluster.serve_workload(workload, num_requests=1_500, seed=3)

        assert sharded.latency.samples_s.tolist() == baseline.latency.samples_s.tolist()
        assert sharded.completed_requests == baseline.completed_requests
        assert sharded.total_energy_joules == baseline.total_energy_joules
        assert sharded.num_replicas == baseline.num_replicas == 1
        left, right = sharded.per_replica[0], baseline.per_replica[0]
        assert left.executed_batches == right.executed_batches
        assert left.ordered_latency_s.tobytes() == right.ordered_latency_s.tobytes()
        assert left.device_busy_s == right.device_busy_s

    def test_degenerate_group_still_accounts_lookups(self, model):
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=1, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        report = serve(group, zipf_workload())
        stats = report.sharding
        assert stats.num_shards == 1
        assert stats.per_shard_lookups[0] > 0
        assert stats.per_shard_gathered == stats.per_shard_lookups
        assert stats.cross_shard_bytes == 0.0
        assert stats.hit_rate == 0.0


class TestHotRowCache:
    """The acceptance scenario: skewed traces reward the hot-row cache."""

    @pytest.mark.parametrize(
        "trace",
        [ZipfianTrace(alpha=1.05), WorkingSetTrace(hot_fraction=0.05, hot_weight=0.9)],
    )
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_cache_raises_hit_rate_and_cuts_gather_latency(self, model, trace, policy):
        workload = Workload(arrivals=PoissonArrivals(rate_qps=30_000), trace=trace)

        def run(cache):
            group = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=2, strategy="row", cache=cache, batching=BATCHING),
                HARPV2_SYSTEM,
            )
            return serve(group, workload)

        off = run(None)
        on = run(CacheConfig(policy=policy, capacity_rows=1_024))
        assert on.sharding.hit_rate > 0.3
        assert off.sharding.hit_rate == 0.0
        assert on.sharding.mean_gather_s < off.sharding.mean_gather_s
        assert on.latency.mean_s < off.latency.mean_s
        # Same seed, same arrivals: the comparison is apples to apples.
        assert on.completed_requests == off.completed_requests

    def test_cache_helps_skew_more_than_uniform(self, model):
        def hit_rate(trace):
            workload = Workload(arrivals=PoissonArrivals(rate_qps=30_000), trace=trace)
            group = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(
                    shards=2,
                    strategy="row",
                    cache=CacheConfig(policy="lru", capacity_rows=512),
                    batching=BATCHING,
                ),
                HARPV2_SYSTEM,
            )
            return serve(group, workload).sharding.hit_rate

        assert hit_rate(ZipfianTrace(alpha=1.05)) > hit_rate(UniformTrace()) + 0.1

    def test_eviction_accounting_under_tight_capacity(self, model):
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(
                shards=2,
                strategy="row",
                cache=CacheConfig(policy="lru", capacity_rows=64),
                batching=BATCHING,
            ),
            HARPV2_SYSTEM,
        )
        stats = serve(group, zipf_workload()).sharding
        assert stats.evictions > 0
        stats.cache.validate()
        assert stats.cache.accesses == stats.total_lookups


class TestFanOutPricing:
    def test_sharding_cuts_the_gather_stage(self, model):
        """More shards gather in parallel: the straggler beats the monolith."""
        gathers = {}
        for shards in (1, 2, 4):
            group = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=shards, strategy="row", batching=BATCHING),
                HARPV2_SYSTEM,
            )
            gathers[shards] = serve(group, zipf_workload()).sharding.mean_gather_s
        assert gathers[2] < gathers[1]
        assert gathers[4] < gathers[2]
        # But never better than a perfect split: the straggler gates.
        assert gathers[2] > gathers[1] / 2

    def test_cross_shard_traffic_appears_beyond_one_shard(self, model):
        for shards, strategy in ((2, "row"), (4, "table")):
            group = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=shards, strategy=strategy, batching=BATCHING),
                HARPV2_SYSTEM,
            )
            stats = serve(group, zipf_workload()).sharding
            assert stats.cross_shard_bytes > 0
            assert stats.cross_shard_transfer_s > 0
            assert sum(stats.per_shard_lookups) == stats.total_lookups

    def test_double_run_is_deterministic(self, model):
        def run():
            group = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(
                    shards=4,
                    strategy="row",
                    cache=CacheConfig(policy="lfu", capacity_rows=512),
                    batching=BATCHING,
                ),
                HARPV2_SYSTEM,
            )
            return serve(group, zipf_workload())

        first, second = run(), run()
        assert first.latency.samples_s.tolist() == second.latency.samples_s.tolist()
        assert first.sharding == second.sharding

    def test_works_on_the_cpu_backend_too(self, model):
        group = Fleet(
            CPUOnlyRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(
                shards=2,
                strategy="greedy",
                cache=CacheConfig(policy="lru", capacity_rows=1_024),
                batching=BATCHING,
            ),
            HARPV2_SYSTEM,
        )
        report = serve(group, zipf_workload())
        assert report.sharding.hit_rate > 0.0
        assert report.completed_requests == 1_500

    def test_backend_name_resolution(self, model):
        group = Fleet("centaur", model, FleetSpec(shards=2, batching=BATCHING), HARPV2_SYSTEM)
        assert group.design_point == "Centaur"

    def test_raw_request_stream_defaults_to_a_uniform_trace(self, model):
        requests = zipf_workload().request_list(num_requests=500, seed=4)
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(
                shards=2,
                strategy="table",
                cache=CacheConfig(policy="lru", capacity_rows=256),
                batching=BATCHING,
            ),
            HARPV2_SYSTEM,
        )
        report = group.serve(requests)
        stats = report.sharding
        assert report.completed_requests == 500
        assert not group.part.plan.row_wise
        assert stats.total_lookups == sum(stats.per_shard_lookups)
        # A uniform trace over 5k rows/table barely hits a 256-row cache.
        assert stats.hit_rate < 0.3


class TestValidation:
    def test_backend_name_without_system_rejected(self, model):
        with pytest.raises(SimulationError):
            Fleet("centaur", model, FleetSpec(shards=2))

    def test_multi_model_mix_rejected(self, model):
        other = homogeneous_dlrm(
            name="mix-other", num_tables=2, rows_per_table=100, gathers_per_table=2
        )
        workload = Workload(
            arrivals=PoissonArrivals(rate_qps=10_000),
            mix=TrafficMix(((model, 0.5), (other, 0.5))),
        )
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=2, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        with pytest.raises(SimulationError):
            group.serve_workload(workload, num_requests=10)

    def test_single_model_mix_for_another_model_rejected_upfront(self, model):
        other = homogeneous_dlrm(
            name="mix-single-other", num_tables=2, rows_per_table=100, gathers_per_table=2
        )
        workload = Workload(
            arrivals=PoissonArrivals(rate_qps=10_000),
            mix=TrafficMix(((other, 1.0),)),
        )
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=2, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        with pytest.raises(SimulationError, match="mix targets model"):
            group.serve_workload(workload, num_requests=10)

    def test_trace_seed_matches_the_unsharded_split(self, model):
        # A sharded fleet draws the same batches as Workload.batch for one
        # seed; the update stream takes a fourth child of the same split.
        workload = Workload(arrivals=PoissonArrivals(rate_qps=10_000), trace=ZipfianTrace())
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=2, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        options = group.part.workload_options(workload, seed=11)
        rng = np.random.default_rng(options["trace_seed"])
        sharded = model_batch(options["trace"], rng, model, 4)
        unsharded = workload.batch(model, 4, seed=11)
        for left, right in zip(sharded.sparse_traces, unsharded.sparse_traces):
            np.testing.assert_array_equal(left.indices, right.indices)
        np.testing.assert_array_equal(sharded.dense_features, unsharded.dense_features)

    def test_update_seed_is_the_workloads_update_child(self, model):
        workload = Workload(arrivals=PoissonArrivals(rate_qps=10_000))
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=2, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        options = group.part.workload_options(workload, seed=11)
        update_seed, expected = options["update_seed"], Workload.seeds(11).updates
        assert update_seed.spawn_key == expected.spawn_key == (3,)
        assert update_seed.entropy == expected.entropy

    def test_empty_stream_rejected(self, model):
        group = Fleet(
            CentaurRunner(HARPV2_SYSTEM),
            model,
            FleetSpec(shards=2, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        with pytest.raises(SimulationError):
            group.serve([])

    def test_bad_cache_argument_rejected(self, model):
        with pytest.raises(SimulationError):
            Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=2, cache="lru:rows=4"),
                HARPV2_SYSTEM,
            )
