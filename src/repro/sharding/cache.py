"""Seed-deterministic hot-row embedding cache (LRU / LFU).

The paper's central observation is that embedding gathers dominate DLRM
inference; production traces additionally concentrate those gathers on a
small hot row set (the zipf / hot-cold models in :mod:`repro.workloads`).
An :class:`EmbeddingCache` sits in front of the host-memory gather on every
backend: rows that hit are served from device-local memory and skip the
host gather entirely, rows that miss are gathered and inserted.

Everything is deterministic given the construction arguments: LRU recency
and LFU frequency ties are broken by a monotonic access tick (never by
randomness), so two runs over the same lookup stream produce bit-identical
:class:`~repro.memsys.stats.CacheStats`.  The ``seed`` argument is part of
the cache identity (it namespaces nothing today but keeps the constructor
stable if a randomized policy is ever added) and two caches built with the
same arguments always agree.

Internally a row is keyed by one packed int, ``(table << 40) | row``.  The
packing is private to this module; :func:`check_key_space` rejects models
whose tables or table count would not fit it, and every probe range-checks
its rows, so two rows can never alias one key.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError
from repro.memsys.stats import CacheStats

#: Low bits of a packed key that hold the row id; the table index sits above.
ROW_BITS = 40
#: Bits left for the table index in a non-negative int64 key.
_TABLE_BITS = 63 - ROW_BITS
#: Tables a packed key can address.
MAX_TABLES = 1 << _TABLE_BITS

#: One table index for every row, or one per row (aligned with the rows).
TableIndex = Union[int, np.ndarray]


def check_key_space(model: DLRMConfig) -> None:
    """Raise unless every ``(table, row)`` of ``model`` packs into one key."""
    if model.num_tables > MAX_TABLES:
        raise ConfigurationError(
            f"model {model.name!r} has {model.num_tables} tables; the hot-row "
            f"cache key addresses at most {MAX_TABLES}"
        )
    for index, table in enumerate(model.tables):
        if table.num_rows > 1 << ROW_BITS:
            raise ConfigurationError(
                f"table {index} of model {model.name!r} has {table.num_rows} rows; "
                f"the hot-row cache key addresses at most 2**{ROW_BITS}"
            )


def _pack(table_index: TableIndex, rows: np.ndarray) -> List[int]:
    """Packed keys of ``rows``, range-checked once for the whole call."""
    rows = np.asarray(rows, dtype=np.int64)
    tables = np.asarray(table_index, dtype=np.int64)
    if rows.size and ((rows >> ROW_BITS).any() or (tables >> _TABLE_BITS).any()):
        raise ConfigurationError(
            f"cache keys need rows in [0, 2**{ROW_BITS}) and tables in "
            f"[0, {MAX_TABLES}); got rows [{rows.min()}, {rows.max()}], "
            f"tables [{tables.min()}, {tables.max()}]"
        )
    return ((tables << ROW_BITS) | rows).tolist()


@dataclass(frozen=True)
class CacheConfig:
    """Declarative description of a hot-row cache (one instance per shard).

    Exactly one of ``capacity_rows`` / ``capacity_bytes`` must be set;
    byte capacities are resolved against the served model's row size when
    the cache is built.

    Attributes:
        policy: ``"lru"`` or ``"lfu"``.
        capacity_rows: Capacity in embedding rows.
        capacity_bytes: Capacity in bytes (rows = bytes // row_bytes).
        seed: Determinism seed carried into every built cache.
    """

    policy: str = "lru"
    capacity_rows: Optional[int] = None
    capacity_bytes: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ("lru", "lfu"):
            raise ConfigurationError(
                f"cache policy must be 'lru' or 'lfu', got {self.policy!r}"
            )
        if (self.capacity_rows is None) == (self.capacity_bytes is None):
            raise ConfigurationError(
                "set exactly one of capacity_rows / capacity_bytes"
            )
        for label, value in (
            ("capacity_rows", self.capacity_rows),
            ("capacity_bytes", self.capacity_bytes),
        ):
            if value is not None and value <= 0:
                raise ConfigurationError(f"{label} must be positive, got {value}")

    def resolve_rows(self, model: DLRMConfig) -> int:
        """Capacity in rows against a concrete model's row size."""
        if self.capacity_rows is not None:
            return int(self.capacity_rows)
        # Size against the model's own DTYPE_BYTES-derived row size (the
        # widest table, so heterogeneous-dim models are sized
        # conservatively) rather than assuming a 4-byte dtype here.
        row_bytes = max(table.row_bytes for table in model.tables)
        rows = int(self.capacity_bytes) // row_bytes
        if rows <= 0:
            raise ConfigurationError(
                f"capacity_bytes={self.capacity_bytes} holds no {row_bytes}-byte "
                f"row of model {model.name!r}"
            )
        return rows

    def build(self, model: DLRMConfig) -> "EmbeddingCache":
        """Instantiate one cache sized for ``model``."""
        return EmbeddingCache(
            capacity_rows=self.resolve_rows(model),
            policy=self.policy,
            seed=self.seed,
        )

    def describe(self) -> str:
        """Compact spec form; round-trips through :func:`parse_cache_spec`."""
        if self.capacity_rows is not None:
            return f"{self.policy}:rows={self.capacity_rows}"
        return f"{self.policy}:bytes={self.capacity_bytes}"


class EmbeddingCache:
    """A deterministic hot-row cache over ``(table, row)`` embedding rows.

    Args:
        capacity_rows: Maximum resident rows (> 0).
        policy: ``"lru"`` evicts the least-recently-used row; ``"lfu"``
            evicts the least-frequently-used row, oldest access first on
            frequency ties.
        seed: Determinism seed (recorded; both policies are tick-ordered
            and consume no randomness).
    """

    def __init__(self, capacity_rows: int, policy: str = "lru", seed: int = 0):
        if capacity_rows <= 0:
            raise ConfigurationError(
                f"capacity_rows must be positive, got {capacity_rows}"
            )
        if policy not in ("lru", "lfu"):
            raise ConfigurationError(
                f"cache policy must be 'lru' or 'lfu', got {policy!r}"
            )
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self.capacity_rows = capacity_rows
        self.policy = policy
        self.seed = seed
        self.stats = CacheStats()
        #: Rows evicted to make room (capacity pressure only — update
        #: invalidations are counted separately in ``update_evictions``).
        self.evictions = 0
        #: Rows dropped because an embedding push invalidated them.
        self.update_evictions = 0
        #: Resident rows refreshed in place by write-through pushes.
        self.update_refreshes = 0
        #: Hits served from rows a push updated behind the cache
        #: (``mode="ignore"`` staleness accounting).
        self.stale_hits = 0
        # Every structure below holds packed keys (see _pack).
        self._stale: set = set()
        self._tick = 0
        # LRU state: insertion/recency-ordered keys.
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        # LFU state: key -> (frequency, last tick) plus a lazy min-heap of
        # (frequency, tick, key) snapshots; stale snapshots are skipped at
        # eviction time, keeping every operation O(log n).
        self._lfu: Dict[int, Tuple[int, int]] = {}
        self._heap: list = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._resident())

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether the ``(table, row)`` pair is resident."""
        table_index, row = key
        if not (0 <= table_index < MAX_TABLES and 0 <= row < 1 << ROW_BITS):
            return False
        return (table_index << ROW_BITS | row) in self._resident()

    def _resident(self) -> dict:
        return self._lru if self.policy == "lru" else self._lfu

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    # ------------------------------------------------------------------
    def lookup(self, table_index: TableIndex, rows: np.ndarray) -> np.ndarray:
        """Probe (and fill) the cache for a gather's row IDs.

        ``table_index`` is one table for every row, or an int array with
        one table per row, so a whole batch's rows probe in one call.
        Returns a boolean hit mask aligned with ``rows``.  Hits refresh
        recency/frequency; misses are inserted, evicting per policy once
        the capacity is reached.  Repeated rows within one call behave as
        consecutive accesses (the second occurrence of a missed row hits).
        """
        keys = _pack(table_index, rows)
        # One byte per access, set on a hit; read back as the bool mask.
        hits = bytearray(len(keys))
        if self.policy == "lru":
            self._lookup_lru(keys, hits)
        else:
            self._lookup_lfu(keys, hits)
        hit_count = hits.count(1)
        self.stats.record_counts(hits=hit_count, misses=len(keys) - hit_count)
        return np.frombuffer(hits, dtype=bool)

    def _lookup_lru(self, keys: List[int], hits: bytearray) -> None:
        cache = self._lru
        capacity = self.capacity_rows
        stale = self._stale
        move_to_end = cache.move_to_end
        popitem = cache.popitem
        # Inside one call the cache only grows until full, then every miss
        # evicts exactly one row, so its size is tracked locally.
        size = len(cache)
        evictions = 0
        for position, key in enumerate(keys):
            if key in cache:
                hits[position] = 1
                move_to_end(key)
                if stale and key in stale:
                    self.stale_hits += 1
                continue
            if size < capacity:
                size += 1
            else:
                evicted = popitem(False)[0]
                evictions += 1
                if stale:
                    stale.discard(evicted)
            cache[key] = None
        self.evictions += evictions

    def _lookup_lfu(self, keys: List[int], hits: bytearray) -> None:
        cache = self._lfu
        capacity = self.capacity_rows
        stale = self._stale
        heap = self._heap
        get = cache.get
        push = heapq.heappush
        tick = self._tick
        for position, key in enumerate(keys):
            entry = get(key)
            tick += 1
            if entry is not None:
                hits[position] = 1
                frequency = entry[0] + 1
                if stale and key in stale:
                    self.stale_hits += 1
            else:
                if len(cache) >= capacity:
                    self._evict_lfu()
                frequency = 1
            cache[key] = (frequency, tick)
            push(heap, (frequency, tick, key))
        self._tick = tick
        # Lazy deletion leaves one stale snapshot per superseded access;
        # compact once they dominate so heap memory stays O(resident rows)
        # over arbitrarily long streams, not O(total lookups).
        if len(heap) > 2 * len(cache) + 16:
            self._heap = [
                (frequency, tick, key)
                for key, (frequency, tick) in cache.items()
            ]
            heapq.heapify(self._heap)

    def _evict_lfu(self) -> None:
        while self._heap:
            frequency, tick, key = heapq.heappop(self._heap)
            current = self._lfu.get(key)
            if current is not None and current == (frequency, tick):
                del self._lfu[key]
                self.evictions += 1
                if self._stale:
                    self._stale.discard(key)
                return
        raise RuntimeError("LFU heap drained with entries resident")  # pragma: no cover

    # ------------------------------------------------------------------
    # Freshness API: embedding pushes arriving behind the read path.
    # ------------------------------------------------------------------
    def invalidate(self, table_index: int, rows: np.ndarray) -> int:
        """Drop pushed rows from the cache; returns rows actually dropped.

        Invalidations are counted in ``update_evictions``, *not* in the
        capacity ``evictions`` counter — the per-cause split freshness
        reports rely on.  Absent rows are a no-op.
        """
        cache = self._resident()
        removed = 0
        for key in _pack(table_index, rows):
            if key in cache:
                # LFU heap snapshots of the key go stale; _evict_lfu
                # already skips snapshots whose entry disagrees.
                del cache[key]
                removed += 1
                if self._stale:
                    self._stale.discard(key)
        self.update_evictions += removed
        return removed

    def refresh(self, table_index: int, rows: np.ndarray) -> int:
        """Write a push through to resident rows; returns rows refreshed.

        Refreshing keeps the row resident and clears any staleness mark
        without touching recency or frequency (a push is not a read).
        Absent rows are not allocated — write-no-allocate keeps one-shot
        pushes from polluting the hot set.
        """
        cache = self._resident()
        refreshed = 0
        for key in _pack(table_index, rows):
            if key in cache:
                refreshed += 1
                if self._stale:
                    self._stale.discard(key)
        self.update_refreshes += refreshed
        return refreshed

    def mark_stale(self, table_index: int, rows: np.ndarray) -> int:
        """Mark resident pushed rows stale (``"ignore"`` freshness mode).

        Later hits on marked rows increment ``stale_hits`` — the run's
        correctness/staleness exposure when pushes are not applied.
        """
        cache = self._resident()
        marked = 0
        for key in _pack(table_index, rows):
            if key in cache and key not in self._stale:
                self._stale.add(key)
                marked += 1
        return marked

    def apply_update(self, table_index: int, rows: np.ndarray, mode: str) -> int:
        """Apply one push per ``mode``; returns the rows affected."""
        if mode == "invalidate":
            return self.invalidate(table_index, rows)
        if mode == "write-through":
            return self.refresh(table_index, rows)
        if mode == "ignore":
            return self.mark_stale(table_index, rows)
        raise ConfigurationError(
            f"update mode must be 'invalidate', 'write-through' or 'ignore', "
            f"got {mode!r}"
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"{self.policy}:{self.capacity_rows}rows"


def parse_cache_spec(spec: Optional[str]) -> Optional[CacheConfig]:
    """Build a :class:`CacheConfig` from ``"lru:rows=4096"`` / ``"lfu:bytes=1048576"``.

    ``None``, ``""`` and ``"off"`` mean no cache.  A bare count
    (``"lru:4096"``) is interpreted as rows.
    """
    if spec is None:
        return None
    text = str(spec).strip()
    if not text or text.lower() in ("off", "none"):
        return None
    policy, _, body = text.partition(":")
    policy = policy.strip().lower()
    if not body.strip():
        raise ConfigurationError(
            f"cache spec {spec!r} needs a capacity, e.g. 'lru:rows=4096'"
        )
    rows: Optional[int] = None
    bytes_: Optional[int] = None
    for part in body.split(","):
        name, _, value = part.partition("=")
        name = name.strip().lower()
        value = value.strip()
        if not _ and name.isdigit():
            rows = int(name)
            continue
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigurationError(
                f"cache spec field {part.strip()!r} is not an integer setting"
            ) from None
        if name == "rows":
            rows = parsed
        elif name == "bytes":
            bytes_ = parsed
        else:
            raise ConfigurationError(
                f"unknown cache spec field {name!r}; use rows=/bytes="
            )
    return CacheConfig(policy=policy, capacity_rows=rows, capacity_bytes=bytes_)
