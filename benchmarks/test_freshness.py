"""Extension benchmark (beyond the paper): cache freshness under updates.

The paper's serving path reads a frozen embedding model; production
recommenders retrain continuously and stream updated rows into serving.
This benchmark pushes a zipf-skewed embedding-update stream (same skew
family as the read trace, so writes hammer the same hot rows reads do)
through the sharded hot-row caches and records how hit rate and p99
degrade with update rate under the two freshness disciplines —
invalidate (drop the row, repay the miss) and write-through (refresh in
place, pay an apply cost in the gather stage) — for both eviction
policies.

The zero-rate column doubles as the acceptance gate: a group built with
``updates=None`` must produce a report byte-identical to the read-only
sharded path (the update machinery must cost nothing when off).
"""

import pickle

from repro.analysis import render_freshness_report
from repro.backends import get_backend
from repro.config import DLRM2
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import CacheConfig
from repro.workloads import PoissonArrivals, UpdateProcess, Workload
from repro.workloads.traces import ZipfianTrace

LOAD_QPS = 30_000
NUM_REQUESTS = 4_000
SLA_S = 5e-3
SEED = 42
NUM_SHARDS = 2
# Big enough for cross-batch retention: at ~30k lookups per batch a
# 4k-row cache thrashes within each batch and update freshness cannot
# move the needle; 64k rows holds the zipf head across batches, which is
# the regime where invalidation visibly costs hits.
CACHE_ROWS = 65_536
ROWS_PER_PUSH = 64
UPDATE_RATES = (2_000, 8_000)
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)

WORKLOAD = Workload(
    arrivals=PoissonArrivals(rate_qps=LOAD_QPS),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf-1.05",
)


def _serve(system, policy, updates, **extra):
    group = Fleet(
        get_backend("centaur", system),
        DLRM2,
        FleetSpec(
            shards=NUM_SHARDS,
            strategy="row",
            cache=CacheConfig(policy=policy, capacity_rows=CACHE_ROWS),
            batching=BATCHING,
            updates=updates,
            **extra,
        ),
        system,
    )
    return group.serve_workload(WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED)


def _freshness_grid(system):
    """policy x mode x update-rate, plus the read-only identity pair.

    The identity blobs are pickled immediately, before anything touches
    the reports: latency/stat accessors memoize into instance state, so a
    fair byte-comparison must snapshot fresh objects.
    """
    reports = {}
    identity = {}
    for policy in ("lru", "lfu"):
        baseline = _serve(system, policy, None)
        off = _serve(system, policy, None)
        identity[policy] = (pickle.dumps(baseline), pickle.dumps(off))
        reports[f"{policy} cache, updates off"] = off
        for mode in ("invalidate", "write-through"):
            for rate in UPDATE_RATES:
                updates = UpdateProcess(
                    arrivals=rate, rows_per_update=ROWS_PER_PUSH, mode=mode
                )
                reports[f"{policy} cache, {mode} @{rate:,}/s"] = _serve(
                    system, policy, updates
                )
    return reports, identity


def test_cache_freshness_under_update_streams(report_sink, system):
    # 12 full serving runs, the costliest artifact of the smoke.
    reports, identity = _freshness_grid(system)

    # Acceptance gate first, before any rendering can touch the reports:
    # updates=None must be byte-identical to the read-only sharded path.
    for policy, (baseline_blob, off_blob) in identity.items():
        assert baseline_blob == off_blob, policy

    report_sink(
        "cache_freshness",
        render_freshness_report(
            reports,
            sla_s=SLA_S,
            title=(
                f"Cache freshness of DLRM(2), zipf(1.05) reads at "
                f"{LOAD_QPS:,} QPS vs zipf-matched update pushes of "
                f"{ROWS_PER_PUSH} rows (extension experiment)"
            ),
        ),
    )

    for policy in ("lru", "lfu"):
        off = reports[f"{policy} cache, updates off"].sharding
        assert off.update_events == 0 and off.update_rows == 0

        # Invalidation strips resident rows: hit rate degrades with the
        # push rate, and update-evictions stay separate from the
        # capacity-eviction counter.
        inval = {
            rate: reports[f"{policy} cache, invalidate @{rate:,}/s"].sharding
            for rate in UPDATE_RATES
        }
        assert inval[2_000].hit_rate < off.hit_rate
        assert inval[8_000].hit_rate < inval[2_000].hit_rate
        for stats in inval.values():
            assert stats.update_invalidations > 0
            assert stats.evictions > 0  # capacity churn is counted apart

        # Write-through keeps the rows resident: refreshes do not touch
        # recency/frequency, so the hit stream is *identical* to the
        # read-only run while the refresh cost lands in the gather stage
        # as apply seconds.
        wt = {
            rate: reports[f"{policy} cache, write-through @{rate:,}/s"].sharding
            for rate in UPDATE_RATES
        }
        for rate in UPDATE_RATES:
            assert wt[rate].hit_rate == off.hit_rate
            assert wt[rate].hit_rate > inval[rate].hit_rate
            assert wt[rate].update_refreshes > 0
            assert wt[rate].update_invalidations == 0
            assert wt[rate].update_apply_s_total > 0.0
