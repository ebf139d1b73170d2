"""Sharded embedding serving with a hot-row cache on a skewed trace.

The paper's core observation is that embedding gathers dominate DLRM
inference; production traffic additionally concentrates those gathers on a
small hot row set.  This example pulls both scale levers the sharding
subsystem adds:

1. serves a zipf(1.05) trace through 1/2/4/8 embedding shards and shows
   how the straggler-gated gather stage and cross-shard traffic evolve,
2. compares the three placement strategies (table-wise, row-wise hash,
   capacity-balanced greedy) at a fixed shard count,
3. switches a per-shard LRU hot-row cache on and shows the skewed trace's
   hit rate cutting the mean gather latency — the consequence a uniform
   trace cannot produce.

Run with:  python examples/sharded_serving.py
"""

from __future__ import annotations

from repro import get_backend
from repro.analysis import render_sharding_report
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import CacheConfig
from repro.workloads import PoissonArrivals, Workload
from repro.workloads.traces import ZipfianTrace

SLA_S = 5e-3
SEED = 7
NUM_REQUESTS = 4_000
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)

WORKLOAD = Workload(
    arrivals=PoissonArrivals(rate_qps=30_000),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf-30kqps",
)


def serve(group: Fleet):
    return group.serve_workload(WORKLOAD, num_requests=NUM_REQUESTS, seed=SEED)


def main() -> None:
    backend = get_backend("centaur", HARPV2_SYSTEM)

    # 1. Shard-count scaling at a fixed strategy, cache off.
    scaling = {}
    for shards in (1, 2, 4, 8):
        group = Fleet(
            backend,
            DLRM2,
            FleetSpec(shards=shards, strategy="row", batching=BATCHING),
            HARPV2_SYSTEM,
        )
        scaling[f"x{shards} row-wise"] = serve(group)
    print(
        render_sharding_report(
            scaling, sla_s=SLA_S, title="Shard-count scaling (zipf trace, cache off)"
        )
    )
    print()

    # 2. Placement strategies at four shards.
    strategies = {}
    for strategy in ("table", "row", "greedy"):
        group = Fleet(
            backend,
            DLRM2,
            FleetSpec(shards=4, strategy=strategy, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        strategies[strategy] = serve(group)
    print(
        render_sharding_report(
            strategies, sla_s=SLA_S, title="Placement strategies at 4 shards"
        )
    )
    print()

    # 3. Hot-row cache on vs off at four shards: the zipf skew pays off.
    cached = {}
    for label, cache in (
        ("cache off", None),
        ("lru 4096 rows/shard", CacheConfig(policy="lru", capacity_rows=4096)),
        ("lfu 4096 rows/shard", CacheConfig(policy="lfu", capacity_rows=4096)),
    ):
        group = Fleet(
            backend,
            DLRM2,
            FleetSpec(shards=4, strategy="row", cache=cache, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        cached[label] = serve(group)
    print(
        render_sharding_report(
            cached, sla_s=SLA_S, title="Hot-row cache on the zipf trace (4 shards)"
        )
    )
    off = cached["cache off"].sharding
    lru = cached["lru 4096 rows/shard"].sharding
    print()
    print(
        f"LRU hit rate {lru.hit_rate:.1%} cuts the mean gather stage from "
        f"{off.mean_gather_s * 1e6:.1f}us to {lru.mean_gather_s * 1e6:.1f}us per batch."
    )


if __name__ == "__main__":
    main()
