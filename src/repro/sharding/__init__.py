"""Embedding-table sharding and hot-row caching (beyond-paper extension).

The paper serves every model from one device; this package scales the
embedding side out and up: :class:`ShardingPlan` partitions a model's
tables across device shards (table-wise, row-wise hash, capacity-balanced
greedy), and :class:`EmbeddingCache` keeps the hot rows of a skewed trace
resident in front of the host-memory gather.  The serving integration —
request fan-out to owning shards, straggler-gated fan-in, cross-shard
transfer pricing — lives in :class:`repro.serving.sharded.ShardGroup`, the
replica part of a sharded :class:`~repro.serving.fleet.Fleet`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cache": ("CacheConfig", "EmbeddingCache", "parse_cache_spec"),
        ".plan": (
            "ShardingPlan", "ShardingStrategy", "TableWiseSharding", "RowWiseHashSharding",
            "GreedyBalancedSharding", "STRATEGIES", "make_plan", "parse_sharding_spec",
        ),
    },
)
