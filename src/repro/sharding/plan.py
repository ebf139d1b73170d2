"""Embedding-table sharding plans: who owns which (table, row).

Centaur's sparse complex exists because embedding gathers dominate DLRM
inference; once a model outgrows one device's memory (or one device's gather
bandwidth), its tables must be *partitioned* across several device shards.
A :class:`ShardingPlan` is the stateless description of that partition —
every ``(table, row)`` pair is owned by exactly one shard — and the
strategies here mirror the placements production embedding servers use:

* :class:`TableWiseSharding` — whole tables round-robined over shards; zero
  row-level bookkeeping but imbalanced when table sizes differ.
* :class:`RowWiseHashSharding` — rows hashed over shards; near-perfect byte
  balance, but every shard touches every table so fan-out is maximal.
* :class:`GreedyBalancedSharding` — whole tables placed longest-processing-
  time-first onto the least-loaded shard; the capacity-balanced middle
  ground.

Plans are consumed by :class:`repro.serving.sharded.ShardGroup` (request
fan-out/fan-in) and validated wholesale by the property tests:
partition totality, ownership uniqueness and per-shard capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError
from repro.utils.specs import lookup, read_number

#: splitmix64 finalizer constants (deterministic row-wise hashing).
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64_inplace(values: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 array, in place.

    ``scratch`` is a uint64 buffer of the same length that the shifts are
    written into, so no temporary is allocated.
    """
    with np.errstate(over="ignore"):
        values ^= np.right_shift(values, np.uint64(30), out=scratch)
        values *= _MIX_A
        values ^= np.right_shift(values, np.uint64(27), out=scratch)
        values *= _MIX_B
        values ^= np.right_shift(values, np.uint64(31), out=scratch)


@dataclass(frozen=True)
class ShardingPlan:
    """One concrete partition of a model's embedding tables over shards.

    Attributes:
        model: The partitioned DLRM configuration.
        num_shards: Number of device shards.
        strategy: Name of the strategy that built the plan.
        table_owner: For table-granular plans, the owning shard of each
            table (length ``model.num_tables``); ``None`` for row-wise
            plans, whose ownership is the hash function.
        hash_seed: Seed of the row-wise ownership hash (ignored by
            table-granular plans).
        capacity_bytes: Optional per-shard capacity; construction fails
            when any shard's resident bytes exceed it.
    """

    model: DLRMConfig
    num_shards: int
    strategy: str
    table_owner: Optional[Tuple[int, ...]] = None
    hash_seed: int = 0
    capacity_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.hash_seed < 0:
            raise ConfigurationError(
                f"hash_seed must be non-negative, got {self.hash_seed}"
            )
        if self.table_owner is not None:
            if len(self.table_owner) != self.model.num_tables:
                raise ConfigurationError(
                    f"plan owns {len(self.table_owner)} tables but the model has "
                    f"{self.model.num_tables}"
                )
            for table_index, owner in enumerate(self.table_owner):
                if not 0 <= owner < self.num_shards:
                    raise ConfigurationError(
                        f"table {table_index} assigned to shard {owner}, outside "
                        f"[0, {self.num_shards})"
                    )
        if self.capacity_bytes is not None:
            if self.capacity_bytes <= 0:
                raise ConfigurationError(
                    f"capacity_bytes must be positive, got {self.capacity_bytes}"
                )
            heaviest = float(np.max(self.shard_bytes))
            if heaviest > self.capacity_bytes:
                raise ConfigurationError(
                    f"{self.strategy} plan overflows shard capacity: heaviest "
                    f"shard holds {heaviest:.0f} bytes > {self.capacity_bytes:.0f}"
                )

    # ------------------------------------------------------------------
    @property
    def row_wise(self) -> bool:
        """True when ownership is decided per row, not per table."""
        return self.table_owner is None

    @cached_property
    def _owner_array(self) -> np.ndarray:
        """``table_owner`` as an int64 array (table-granular plans)."""
        return np.asarray(self.table_owner, dtype=np.int64)

    def owner_of(
        self,
        table_index: Union[int, np.ndarray],
        rows: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Owning shard of each row ID (vectorized, int64).

        Every ``(table, row)`` maps to exactly one shard — table-granular
        plans broadcast the table's owner, row-wise plans hash the row.
        ``table_index`` is one table for every row or an int array with one
        table per row.  ``out``, when given, is an int64 array shaped like
        ``rows`` that receives the owners (and the hash's working state).
        """
        rows = np.asarray(rows, dtype=np.int64)
        tables = np.asarray(table_index, dtype=np.int64)
        num_tables = self.model.num_tables
        if tables.ndim and tables.shape != rows.shape:
            raise ConfigurationError(
                f"table_index must be one table or one per row: got tables of "
                f"shape {tables.shape} for rows of shape {rows.shape}"
            )
        if tables.size and (tables.min() < 0 or tables.max() >= num_tables):
            bad = tables[(tables < 0) | (tables >= num_tables)].flat[0]
            raise ConfigurationError(
                f"table index {bad} outside [0, {num_tables})"
            )
        if out is None:
            out = np.empty(rows.shape, dtype=np.int64)
        if self.table_owner is not None:
            out[...] = self._owner_array[tables]
            return out
        if self.num_shards == 1:
            out.fill(0)
            return out
        # Hash (row + (table + 1) * golden + seed * mix_b) mod 2**64 in
        # place.  Rows are reinterpreted as uint64, which equals casting.
        keyed = out.view(np.uint64)
        scratch = np.empty_like(keyed)
        with np.errstate(over="ignore"):
            offsets = (tables.astype(np.uint64) + np.uint64(1)) * _GOLDEN
            offsets += np.uint64(self.hash_seed) * _MIX_B
            np.add(rows.view(np.uint64), offsets, out=keyed)
        _splitmix64_inplace(keyed, scratch)
        # keyed % num_shards via floor division, which numpy runs several
        # times faster than remainder for a scalar divisor.
        shards = np.uint64(self.num_shards)
        np.floor_divide(keyed, shards, out=scratch)
        scratch *= shards
        keyed -= scratch
        return out

    @cached_property
    def shard_bytes(self) -> Tuple[float, ...]:
        """Embedding bytes resident on each shard (exact, not estimated)."""
        totals = np.zeros(self.num_shards, dtype=np.float64)
        if self.table_owner is not None:
            for owner, table in zip(self.table_owner, self.model.tables):
                totals[owner] += table.table_bytes
            return tuple(float(value) for value in totals)
        # Hash table by table through one row-id range and one owner buffer
        # sized for the largest table, instead of fresh arrays per table.
        largest = max(table.num_rows for table in self.model.tables)
        row_ids = np.arange(largest, dtype=np.int64)
        owners = np.empty(largest, dtype=np.int64)
        for table_index, table in enumerate(self.model.tables):
            count = table.num_rows
            self.owner_of(table_index, row_ids[:count], out=owners[:count])
            counts = np.bincount(owners[:count], minlength=self.num_shards)
            totals += counts * float(table.row_bytes)
        return tuple(float(value) for value in totals)

    @property
    def imbalance(self) -> float:
        """Max-over-mean of per-shard resident bytes (1.0 is perfect)."""
        shard_bytes = self.shard_bytes
        mean = sum(shard_bytes) / len(shard_bytes)
        if mean == 0.0:
            return 1.0
        return max(shard_bytes) / mean

    def describe(self) -> str:
        return (
            f"{self.strategy} x{self.num_shards} "
            f"(imbalance {self.imbalance:.2f})"
        )


# ----------------------------------------------------------------------
# Placement strategies.
# ----------------------------------------------------------------------
def _check_shards(num_shards: int) -> None:
    if num_shards <= 0:
        raise ConfigurationError(f"num_shards must be positive, got {num_shards}")


class ShardingStrategy:
    """Builds a :class:`ShardingPlan` for a model over ``num_shards``."""

    #: Short machine-readable kind, used by the CLI spec parser.
    name: str = "abstract"

    def build(
        self,
        model: DLRMConfig,
        num_shards: int,
        capacity_bytes: Optional[float] = None,
    ) -> ShardingPlan:
        raise NotImplementedError


class TableWiseSharding(ShardingStrategy):
    """Whole tables assigned round-robin in table order."""

    name = "table"

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        owners = tuple(index % num_shards for index in range(model.num_tables))
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=owners,
            capacity_bytes=capacity_bytes,
        )


class RowWiseHashSharding(ShardingStrategy):
    """Rows hashed over shards with a seed-deterministic splitmix64 hash."""

    name = "row"

    def __init__(self, hash_seed: int = 0):
        if hash_seed < 0:
            raise ConfigurationError(f"hash_seed must be non-negative, got {hash_seed}")
        self.hash_seed = hash_seed

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=None,
            hash_seed=self.hash_seed,
            capacity_bytes=capacity_bytes,
        )


class GreedyBalancedSharding(ShardingStrategy):
    """Capacity-balanced greedy: biggest tables first, least-loaded shard.

    The classic longest-processing-time heuristic over table bytes; ties on
    load break toward the lower shard index and ties on size toward the
    lower table index, so the placement is deterministic.
    """

    name = "greedy"

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        order = sorted(
            range(model.num_tables),
            key=lambda index: (-model.tables[index].table_bytes, index),
        )
        loads = [0.0] * num_shards
        owners = [0] * model.num_tables
        for table_index in order:
            shard = min(range(num_shards), key=lambda s: (loads[s], s))
            owners[table_index] = shard
            loads[shard] += model.tables[table_index].table_bytes
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=tuple(owners),
            capacity_bytes=capacity_bytes,
        )


#: Strategy registry used by :func:`make_plan` and the CLI spec parser.
STRATEGIES = {
    strategy.name: strategy
    for strategy in (TableWiseSharding, RowWiseHashSharding, GreedyBalancedSharding)
}


def make_plan(
    model: DLRMConfig,
    num_shards: int,
    strategy: Union[str, ShardingStrategy] = "table",
    capacity_bytes: Optional[float] = None,
) -> ShardingPlan:
    """Build a plan from a strategy name (``table``/``row``/``greedy``) or instance."""
    if isinstance(strategy, ShardingStrategy):
        return strategy.build(model, num_shards, capacity_bytes=capacity_bytes)
    cls = lookup(STRATEGIES, str(strategy), "sharding strategy")
    return cls().build(model, num_shards, capacity_bytes=capacity_bytes)


def parse_sharding_spec(spec: str) -> Tuple[int, str]:
    """Parse a compact ``"<shards>[:<strategy>]"`` spec, e.g. ``"4:row"``.

    The one spec grammar that puts its number first: the count takes the
    whole-number rule and the strategy the unknown-name error of
    :mod:`repro.utils.specs`.
    """
    count_text, _, strategy = str(spec).strip().partition(":")
    count = read_number(count_text, "shard count", whole=True)
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    strategy = strategy.strip() or "table"
    lookup(STRATEGIES, strategy, "sharding strategy")
    return count, strategy
