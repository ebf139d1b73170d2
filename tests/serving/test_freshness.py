"""Serving-level tests for embedding-update streams and the shared tier."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurRunner
from repro.errors import SimulationError
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.serving.sharded import ShardedReplicaServer
from repro.sharding import CacheConfig
from repro.workloads import PoissonArrivals, UpdateProcess, Workload
from repro.workloads.traces import ZipfianTrace

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)
NUM_REQUESTS = 1_500
SEED = 3


@pytest.fixture(scope="module")
def model():
    return homogeneous_dlrm(
        name="freshness-test",
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


def serve(model, updates=None, shared_cache=None, cache_rows=1_024, **kwargs):
    group = Fleet(
        CentaurRunner(HARPV2_SYSTEM),
        model,
        FleetSpec(
            shards=2,
            strategy="row",
            cache=CacheConfig(policy="lru", capacity_rows=cache_rows),
            batching=BATCHING,
            updates=updates,
            shared_cache=shared_cache,
        ),
        HARPV2_SYSTEM,
    )
    return group.serve_workload(
        zipf_workload(), num_requests=NUM_REQUESTS, seed=SEED, **kwargs
    )


def pushes(mode, rate=20_000, rows=8):
    return UpdateProcess(arrivals=rate, rows_per_update=rows, mode=mode)


class TestZeroUpdateIdentity:
    """The acceptance gate: updates=None must cost nothing, bit for bit."""

    def test_updates_none_is_bit_identical_to_read_only_path(self, model):
        baseline = serve(model)  # updates kwarg defaulted
        off = serve(model, updates=None)
        # Compare the fresh, untouched reports: latency accessors memoize
        # into instance state, so any property read before pickling would
        # fake a difference.
        assert pickle.dumps(baseline) == pickle.dumps(off)

    def test_read_only_runs_report_inert_freshness_fields(self, model):
        report = serve(model)
        stats = report.sharding
        assert stats.update_mode is None
        assert stats.update_events == 0
        assert stats.update_rows == 0
        assert stats.update_invalidations == 0
        assert stats.update_refreshes == 0
        assert stats.stale_hits == 0
        assert stats.update_apply_s_total == 0.0
        assert stats.shared_cache is None
        assert stats.stale_hit_rate == 0.0


class TestInvalidate:
    def test_invalidation_costs_hits_and_counts_per_cause(self, model):
        off = serve(model)
        inval = serve(model, updates=pushes("invalidate"))
        assert inval.sharding.update_mode == "invalidate"
        assert inval.sharding.update_events > 0
        assert inval.sharding.update_rows > 0
        assert inval.sharding.update_invalidations > 0
        assert inval.sharding.update_refreshes == 0
        # Update-evictions are counted apart from capacity evictions, and
        # the stripped rows cost real hits against the same seed.
        assert inval.sharding.evictions > 0
        assert inval.sharding.hit_rate < off.sharding.hit_rate
        assert inval.completed_requests == NUM_REQUESTS

    def test_update_pressure_scales_the_damage(self, model):
        gentle = serve(model, updates=pushes("invalidate", rate=2_000))
        storm = serve(model, updates=pushes("invalidate", rate=40_000))
        assert storm.sharding.update_invalidations > gentle.sharding.update_invalidations
        assert storm.sharding.hit_rate < gentle.sharding.hit_rate


class TestWriteThrough:
    def test_refreshes_preserve_the_hit_stream_and_cost_gather_time(self, model):
        off = serve(model)
        wt = serve(model, updates=pushes("write-through"))
        stats = wt.sharding
        assert stats.update_mode == "write-through"
        assert stats.update_refreshes > 0
        assert stats.update_invalidations == 0
        assert stats.update_apply_s_total > 0.0
        # A refresh is not a read: residency and recency are untouched, so
        # the hit stream is identical to the read-only run...
        assert stats.hit_rate == off.sharding.hit_rate
        # ...but the refresh traffic competes with reads in the gather
        # stage (priced into the straggler gate).
        assert stats.gather_s_total > off.sharding.gather_s_total


class TestIgnore:
    def test_ignored_pushes_count_stale_hits(self, model):
        off = serve(model)
        stale = serve(model, updates=pushes("ignore"))
        stats = stale.sharding
        assert stats.update_mode == "ignore"
        assert stats.stale_hits > 0
        assert stats.stale_hit_rate > 0.0
        assert stats.update_invalidations == 0
        assert stats.update_refreshes == 0
        # Nothing is applied, so serving is unchanged except accounting.
        assert stats.hit_rate == off.sharding.hit_rate


class TestSharedTier:
    def test_shared_cache_absorbs_local_misses_over_the_link(self, model):
        report = serve(
            model, shared_cache=CacheConfig(policy="lru", capacity_rows=8_192)
        )
        stats = report.sharding
        assert stats.shared_cache is not None
        assert stats.shared_cache.accesses > 0
        assert stats.shared_hits > 0
        assert stats.shared_transfer_s > 0.0

    def test_shared_tier_requires_a_system(self, model):
        # A runner without a .system attribute leaves the group systemless;
        # the shared tier must then be rejected (its fetches are priced
        # over the system link).
        with pytest.raises(SimulationError):
            Fleet(
                SimpleNamespace(),
                model,
                FleetSpec(
                    shards=1,
                    batching=BATCHING,
                    shared_cache=CacheConfig(policy="lru", capacity_rows=1_024),
                ),
            )

    def test_shared_tier_sees_update_stream_too(self, model):
        report = serve(
            model,
            updates=pushes("invalidate"),
            shared_cache=CacheConfig(policy="lru", capacity_rows=8_192),
        )
        # Invalidations land on both tiers; the totals include the shared
        # tier's drops on top of the per-shard ones.
        solo = serve(model, updates=pushes("invalidate"))
        assert (
            report.sharding.update_invalidations > solo.sharding.update_invalidations
        )


class TestValidation:
    def test_updates_must_be_an_update_process(self, model):
        with pytest.raises(SimulationError):
            Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=2, batching=BATCHING, updates="invalidate:rate=100"),
                HARPV2_SYSTEM,
            )

    def test_shared_cache_must_be_a_cache_config(self, model):
        with pytest.raises(SimulationError):
            Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                model,
                FleetSpec(shards=2, batching=BATCHING, shared_cache="lru:rows=1024"),
                HARPV2_SYSTEM,
            )


class TestDriverTermination:
    """The infinite push stream must not keep the simulator alive."""

    @pytest.mark.parametrize("mode", ["invalidate", "write-through", "ignore"])
    def test_run_completes_exactly_the_requested_load(self, model, mode):
        report = serve(model, updates=pushes(mode))
        assert report.completed_requests == NUM_REQUESTS
        assert report.sharding.update_events > 0

    def test_deterministic_across_fresh_runs(self, model):
        first = serve(model, updates=pushes("invalidate"))
        second = serve(model, updates=pushes("invalidate"))
        assert pickle.dumps(first) == pickle.dumps(second)


class TestPriceRefillRegression:
    def test_dense_only_breakdown_prices_a_refill_at_zero(self):
        """Regression: a duck-typed runner handing back a plain-dict
        breakdown without an "EMB" stage made ``price_refill`` divide
        ``None`` — an opaque TypeError mid-chaos-run."""
        from repro.sharding.plan import make_plan
        from repro.sim.engine import Simulator

        dense_model = homogeneous_dlrm(
            name="dense-only",
            num_tables=2,
            rows_per_table=100,
            gathers_per_table=2,
        )
        service = SimpleNamespace(
            multi_model=False,
            model_for=lambda name: dense_model,
            result=lambda batch_size, name: SimpleNamespace(
                breakdown={}, power_watts=10.0
            ),
        )
        server = ShardedReplicaServer(
            Simulator(),
            service,
            BATCHING,
            plan=make_plan(dense_model, 2, "table"),
            link=None,
            trace_model=None,
            trace_rng=np.random.default_rng(0),
        )
        assert server.price_refill(1_000) == (0.0, 0.0)
