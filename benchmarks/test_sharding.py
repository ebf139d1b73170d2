"""Extension benchmark (beyond the paper): sharded embedding serving.

The paper serves every model from one device; at fleet scale the embedding
tables shard across devices and production traffic is skewed.  This
benchmark drives a zipf(1.05) trace through 1/2/4/8 embedding shards and
through a per-shard hot-row LRU/LFU cache, recording the hit rate,
shard-load imbalance, cross-shard traffic and the straggler-gated gather
stage — the quantities the sharding subsystem exists to expose.
"""

from repro.analysis import render_sharding_report
from repro.backends import get_backend
from repro.config import DLRM2
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import CacheConfig
from repro.workloads import PoissonArrivals, Workload
from repro.workloads.traces import ZipfianTrace

LOAD_QPS = 30_000
NUM_REQUESTS = 4_000
SLA_S = 5e-3
SEED = 42
CACHE_ROWS = 4_096
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)

WORKLOAD = Workload(
    arrivals=PoissonArrivals(rate_qps=LOAD_QPS),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf-1.05",
)


def _serve_grid(system):
    """Shard-count scaling plus cache on/off, all at one seed."""
    reports = {}
    for shards in (1, 2, 4, 8):
        for cache in (None, CacheConfig(policy="lru", capacity_rows=CACHE_ROWS)):
            label = f"x{shards} row-wise, cache {'lru' if cache else 'off'}"
            group = Fleet(
                get_backend("centaur", system),
                DLRM2,
                FleetSpec(shards=shards, strategy="row", cache=cache, batching=BATCHING),
                system,
            )
            reports[label] = group.serve_workload(
                WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED
            )
    group = Fleet(
        get_backend("centaur", system),
        DLRM2,
        FleetSpec(
            shards=4,
            strategy="row",
            cache=CacheConfig(policy="lfu", capacity_rows=CACHE_ROWS),
            batching=BATCHING,
        ),
        system,
    )
    reports["x4 row-wise, cache lfu"] = group.serve_workload(
        WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED
    )
    return reports


def test_sharded_embedding_serving(report_sink, system):
    reports = _serve_grid(system)

    report_sink(
        "sharding_scaling",
        render_sharding_report(
            reports,
            sla_s=SLA_S,
            title=(
                f"Sharded serving of DLRM(2), zipf(1.05) at {LOAD_QPS:,} QPS "
                "(extension experiment)"
            ),
        ),
    )

    # Shard scaling: the straggler-gated gather stage shrinks with shards.
    gather = {
        shards: reports[f"x{shards} row-wise, cache off"].sharding.mean_gather_s
        for shards in (1, 2, 4, 8)
    }
    assert gather[2] < gather[1]
    assert gather[4] < gather[2]
    assert gather[8] < gather[4]

    # The acceptance scenario: at equal seed, the hot-row cache turns the
    # zipf skew into hits and a lower mean gather latency at every width.
    for shards in (1, 2, 4, 8):
        off = reports[f"x{shards} row-wise, cache off"].sharding
        lru = reports[f"x{shards} row-wise, cache lru"].sharding
        assert off.hit_rate == 0.0
        assert lru.hit_rate > 0.3
        assert lru.mean_gather_s < off.mean_gather_s

    # LFU retains the zipf head better than LRU at the same capacity.
    lru4 = reports["x4 row-wise, cache lru"].sharding
    lfu4 = reports["x4 row-wise, cache lfu"].sharding
    assert lfu4.hit_rate > lru4.hit_rate

    # Cross-shard traffic is the price of width: it must grow with shards
    # and be zero for the unsharded group.
    assert reports["x1 row-wise, cache off"].sharding.cross_shard_bytes == 0.0
    assert (
        reports["x8 row-wise, cache off"].sharding.cross_shard_bytes
        > reports["x2 row-wise, cache off"].sharding.cross_shard_bytes
    )
