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

from repro.sharding.cache import CacheConfig, EmbeddingCache, parse_cache_spec
from repro.sharding.plan import (
    STRATEGIES,
    GreedyBalancedSharding,
    RowWiseHashSharding,
    ShardingPlan,
    ShardingStrategy,
    TableWiseSharding,
    make_plan,
    parse_sharding_spec,
)

__all__ = [
    "CacheConfig",
    "EmbeddingCache",
    "parse_cache_spec",
    "ShardingPlan",
    "ShardingStrategy",
    "TableWiseSharding",
    "RowWiseHashSharding",
    "GreedyBalancedSharding",
    "STRATEGIES",
    "make_plan",
    "parse_sharding_spec",
]
