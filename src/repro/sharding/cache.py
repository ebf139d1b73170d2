"""Seed-deterministic hot-row embedding cache (LRU / LFU).

The paper's central observation is that embedding gathers dominate DLRM
inference; production traces additionally concentrate those gathers on a
small hot row set (the zipf / hot-cold models in :mod:`repro.workloads`).
An :class:`EmbeddingCache` sits in front of the host-memory gather on every
backend: rows that hit are served from device-local memory and skip the
host gather entirely, rows that miss are gathered and inserted.

Everything is deterministic given the construction arguments: LRU order is
the order of accesses, and LFU keeps one first-in first-out queue of rows
per frequency (never randomness).  A row joins the queue of frequency f at
the access that gave it frequency f, so each queue is in last-access order
and its head is the least-frequent row accessed longest ago, the victim of
ordering by ``(frequency, last access)``.  Two runs over the same lookup
stream produce bit-identical :class:`~repro.memsys.stats.CacheStats`.  An LRU call
is decided all at once by stack distance (see :class:`_LruRows`), with the
same hits, evictions and final recency order as probing row by row.  The
``seed`` argument is part of the cache identity (it namespaces nothing
today but keeps the constructor stable if a randomized policy is ever
added) and two caches built with the same arguments always agree.

Internally a row is keyed by one packed int, ``(table << 40) | row``.  The
packing is private to this module; :func:`check_key_space` rejects models
whose tables or table count would not fit it, and every probe range-checks
its rows, so two rows can never alias one key.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError
from repro.memsys.stats import CacheStats
from repro.utils.specs import parse_kv

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


def _pack(table_index: TableIndex, rows: np.ndarray) -> np.ndarray:
    """Packed int64 keys of ``rows``, range-checked once for the whole call."""
    rows = np.asarray(rows, dtype=np.int64)
    tables = np.asarray(table_index, dtype=np.int64)
    if tables.ndim and tables.shape != rows.shape:
        raise ConfigurationError(
            f"table_index must be one table or one per row: got tables of shape "
            f"{tables.shape} for rows of shape {rows.shape}"
        )
    if rows.size and ((rows >> ROW_BITS).any() or (tables >> _TABLE_BITS).any()):
        raise ConfigurationError(
            f"cache keys need rows in [0, 2**{ROW_BITS}) and tables in "
            f"[0, {MAX_TABLES}); got rows [{rows.min()}, {rows.max()}], "
            f"tables [{tables.min()}, {tables.max()}]"
        )
    return (tables << ROW_BITS) | rows


#: Cell width of the prefix grid that counts nested reuse intervals.
_CELL = 64
#: ``_BEFORE[o, k]`` is ``k < o`` and ``_AFTER[o, k]`` is ``k > o``: the
#: strip masks of a query at offset ``o`` in its cell.
_BEFORE = np.tri(_CELL + 1, _CELL, -1, dtype=bool)
_AFTER = ~_BEFORE[1:]
#: Rows probed per pass.  LRU is sequential, so consecutive passes decide
#: exactly what one pass over a whole call would, while the grid, which
#: grows with the square of a pass's length, stays small.
_PASS_ROWS = 1 << 14


class _LruRows:
    """LRU state as arrays, probed many rows at a time by stack distance.

    ``keys`` holds the resident packed keys, least recently used first, and
    ``stale`` flags the ones a push marked stale.  ``_sorted`` / ``_slot``
    index them: ``keys[_slot[i]] == _sorted[i]`` with ``_sorted``
    ascending, so a probe looks up only its own keys and never sorts the
    resident set.

    A pass is decided as if the resident keys had just been accessed in
    recency order and the pass's keys followed them (Mattson et al.,
    "Evaluation techniques for storage hierarchies", 1970): an access hits
    an LRU cache of C rows iff fewer than C distinct keys were touched since
    the same key's previous access.  Replaying the resident keys from an
    empty cache rebuilds exactly this state, also below capacity.
    """

    __slots__ = ("capacity", "keys", "stale", "_sorted", "_slot")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keys = np.empty(0, dtype=np.int64)
        self.stale = np.empty(0, dtype=bool)
        self._sorted = self.keys
        self._slot = self.keys

    def __len__(self) -> int:
        return self.keys.size

    def locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Index position of each key, and its recency slot (-1 if absent)."""
        at = np.searchsorted(self._sorted, keys)
        size = self._sorted.size
        if not size:
            return at, np.full(keys.shape, -1, dtype=np.int64)
        inside = np.minimum(at, size - 1)
        return at, np.where(self._sorted[inside] == keys, self._slot[inside], -1)

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Hit mask, evictions and stale hits of one call; updates the state."""
        hits = np.empty(keys.size, dtype=bool)
        evictions = stale_hits = 0
        for start in range(0, keys.size, _PASS_ROWS):
            part = slice(start, start + _PASS_ROWS)
            hits[part], evicted, stale = self._probe_pass(keys[part])
            evictions += evicted
            stale_hits += stale
        return hits, evictions, stale_hits

    def _probe_pass(self, keys: np.ndarray) -> Tuple[np.ndarray, int, int]:
        n = keys.size
        resident = self.keys.size
        capacity = self.capacity
        # Group the pass by key with positions ascending inside each group:
        # a quicksort by key gives each key a dense id, and a stable sort
        # of those ids (a radix sort, in the narrowest dtype that holds
        # them) orders each group by position.  One stable sort by key is
        # several times slower than both.
        order = np.argsort(keys)
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        sorted_keys = keys[order]
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
        group = np.cumsum(starts) - 1
        unique = sorted_keys[starts]
        dense = np.empty(n, dtype=np.int64)
        dense[order] = group
        order = np.argsort(dense.astype(np.min_scalar_type(unique.size)), kind="stable")
        ends = np.empty(n, dtype=bool)
        ends[:-1] = starts[1:]
        ends[-1] = True
        first = order[starts]
        at, slot = self.locate(unique)
        # Virtual sequence: resident keys at 0..S-1, the pass at S..S+n-1.
        # ``prev`` is each access's previous position in it, or -1.
        prev = np.empty(n, dtype=np.int64)
        prev[order[1:]] = order[:-1] + resident
        prev[first] = slot
        # ``gap`` counts the accesses since the previous one.  Fewer than C
        # is a hit outright; otherwise the access hits iff the distinct keys
        # in between, the gap less the repeats nested inside it, are fewer.
        reused = prev >= 0
        gap = np.arange(resident - 1, resident - 1 + n) - prev
        hits = reused & (gap < capacity)
        ambiguous = np.flatnonzero(reused & (gap >= capacity))
        if ambiguous.size:
            distinct = gap[ambiguous] - _nested_reuses(prev, reused, ambiguous)
            hits[ambiguous] = distinct < capacity
        misses = n - int(np.count_nonzero(hits))
        evictions = max(0, resident + misses - capacity)

        # Stale hits: hits on keys stale at pass start before any miss of
        # the same key in the pass (a miss means it was evicted meanwhile).
        found = slot >= 0
        was_stale = np.zeros(unique.size, dtype=bool)
        was_stale[found] = self.stale[slot[found]]
        stale_hits = 0
        still_stale = was_stale
        if was_stale.any():
            hit_sorted = hits[order]
            miss_sorted = ~hit_sorted
            missed_before = np.cumsum(miss_sorted) - miss_sorted
            missed_before -= missed_before[starts][group]
            stale_hits = int(
                np.count_nonzero(hit_sorted & was_stale[group] & (missed_before == 0))
            )
            still_stale = was_stale & (
                np.bincount(dense[~hits], minlength=unique.size) == 0
            )

        # The new state is the last C distinct keys by last occurrence:
        # untouched residents in recency order, then the pass's keys.
        untouched = np.ones(resident, dtype=bool)
        untouched[slot[found]] = False
        survivors = int(np.count_nonzero(untouched))
        last = np.zeros(n, dtype=bool)
        last[order[ends]] = True
        newest = dense[last]
        drop = max(0, survivors + unique.size - capacity)
        self.keys = np.concatenate((self.keys[untouched], keys[last]))[drop:]
        self.stale = np.concatenate((self.stale[untouched], still_stale[newest]))[drop:]
        # New slots: survivors keep their order, pass keys follow them, and
        # the oldest ``drop`` fall below zero.  New keys merge into the
        # index at the positions the lookup found; dropped keys leave it.
        rank = np.empty(unique.size, dtype=np.int64)
        rank[newest] = np.arange(survivors - drop, survivors - drop + unique.size)
        moved = np.cumsum(untouched)
        moved -= 1 + drop
        moved[slot[found]] = rank[found]
        inserted = ~found & (rank >= 0)
        at = at[inserted]
        index = np.insert(self._sorted, at, unique[inserted])
        slots = np.insert(moved[self._slot], at, rank[inserted])
        kept = slots >= 0
        self._sorted = index[kept]
        self._slot = slots[kept]
        return hits, evictions, stale_hits

    def _retain(self, keep: np.ndarray) -> None:
        """Keep the resident keys ``keep`` selects, in recency order."""
        slots = np.cumsum(keep) - 1
        kept = keep[self._slot]
        self._sorted = self._sorted[kept]
        self._slot = slots[self._slot[kept]]
        self.keys = self.keys[keep]
        self.stale = self.stale[keep]

    def invalidate(self, keys: np.ndarray) -> int:
        slots = self.locate(keys)[1]
        slots = np.unique(slots[slots >= 0])
        if slots.size:
            keep = np.ones(self.keys.size, dtype=bool)
            keep[slots] = False
            self._retain(keep)
        return slots.size

    def refresh(self, keys: np.ndarray) -> int:
        slots = self.locate(keys)[1]
        slots = slots[slots >= 0]
        self.stale[slots] = False
        return slots.size

    def mark_stale(self, keys: np.ndarray) -> int:
        slots = self.locate(keys)[1]
        slots = np.unique(slots[slots >= 0])
        fresh = slots[~self.stale[slots]]
        self.stale[fresh] = True
        return fresh.size


def _nested_reuses(
    prev: np.ndarray, reused: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """``#{j < t : prev[j] > prev[t]}`` for each position ``t`` in ``queries``.

    These are the repeated keys inside the reuse interval ``(prev[t], t)``
    of a query (which has ``prev[t] >= 0``).  Every ``prev >= 0`` is
    distinct, so with ``prev`` replaced by its rank (the point's height)
    this counts the earlier points above each query.  A prefix grid of
    ``_CELL``-square cells counts whole cells; two exact strips count the
    query's own cell column and cell row.
    """
    n = prev.size
    points = np.flatnonzero(reused)
    by_prev = points[np.argsort(prev[points])]
    columns = n // _CELL + 1
    rows = points.size // _CELL + 1
    # Height of each position (-1 off the points), and the position of
    # each height (n past the last one), padded to whole cells.
    height = np.full(columns * _CELL, -1, dtype=np.int32)
    height[by_prev] = np.arange(points.size, dtype=np.int32)
    position = np.full(rows * _CELL, n, dtype=np.int32)
    position[: points.size] = by_prev
    queries = queries.astype(np.int32)
    heights = height[queries]
    column = queries // _CELL
    row = heights // _CELL
    cells = np.bincount(
        points // _CELL * rows + height[points] // _CELL, minlength=columns * rows
    ).reshape(columns, rows)
    # above[c, r]: points in cell columns left of c and cell rows above r.
    left = np.zeros((columns, rows), dtype=np.int64)
    np.cumsum(cells[:-1], axis=0, out=left[1:])
    above = left.sum(axis=1, keepdims=True) - np.cumsum(left, axis=1)
    # Column strip: earlier points of the query's cell column, higher up.
    strip = _BEFORE[queries - column * _CELL] & (
        height.reshape(columns, _CELL)[column] > heights[:, None]
    )
    counts = above[column, row] + np.count_nonzero(strip, axis=1)
    # Row strip: higher points of the query's cell row, in earlier columns.
    strip = _AFTER[heights - row * _CELL] & (
        position.reshape(rows, _CELL)[row] < (column * _CELL)[:, None]
    )
    return counts + np.count_nonzero(strip, axis=1)


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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

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
        seed: Determinism seed (recorded; both policies are ordered by
            access and consume no randomness).
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
        # Every structure below holds packed keys (see _pack).  LRU state,
        # stale flags included, lives in arrays probed by stack distance.
        self._lru = _LruRows(capacity_rows) if policy == "lru" else None
        # LFU state (Shah, Mitra and Matani, 2010): key -> frequency, one
        # insertion-ordered FIFO of keys per frequency with empty classes
        # deleted, and the lowest frequency present.  A key enters class f
        # at the access that gave it frequency f, so each class is in
        # last-access order and the head of the lowest one is the victim.
        # LFU has no inclusion property, so it stays a per-row loop, O(1)
        # per row.
        self._lfu: Dict[int, int] = {}
        self._classes: Dict[int, OrderedDict[int, None]] = {}
        self._lowest = 0
        self._stale: set = set()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru) if self._lru is not None else len(self._lfu)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether the ``(table, row)`` pair is resident."""
        table_index, row = key
        if not (0 <= table_index < MAX_TABLES and 0 <= row < 1 << ROW_BITS):
            return False
        packed = table_index << ROW_BITS | row
        if self._lru is not None:
            return bool(self._lru.locate(np.array([packed]))[1][0] >= 0)
        return packed in self._lfu

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
        if not keys.size:
            return np.zeros(keys.shape, dtype=bool)
        if self._lru is not None:
            hits, evictions, stale_hits = self._lru.probe(keys)
            self.evictions += evictions
            self.stale_hits += stale_hits
        else:
            hits = self._lookup_lfu(keys.tolist())
        hit_count = int(np.count_nonzero(hits))
        self.stats.record_counts(hits=hit_count, misses=keys.size - hit_count)
        return hits

    def _lookup_lfu(self, keys: List[int]) -> np.ndarray:
        # One byte per access, set on a hit; read back as the bool mask.
        hits = bytearray(len(keys))
        frequencies = self._lfu
        classes = self._classes
        capacity = self.capacity_rows
        stale = self._stale
        lowest = self._lowest
        get = frequencies.get
        for position, key in enumerate(keys):
            frequency = get(key)
            if frequency is not None:
                hits[position] = 1
                if stale and key in stale:
                    self.stale_hits += 1
                fifo = classes[frequency]
                del fifo[key]
                if not fifo:
                    del classes[frequency]
                    if lowest == frequency:
                        lowest += 1
                frequency += 1
            else:
                if len(frequencies) >= capacity:
                    fifo = classes[lowest]
                    victim = fifo.popitem(last=False)[0]
                    if not fifo:
                        del classes[lowest]
                    del frequencies[victim]
                    self.evictions += 1
                    if stale:
                        stale.discard(victim)
                frequency = lowest = 1
            frequencies[key] = frequency
            fifo = classes.get(frequency)
            if fifo is None:
                fifo = classes[frequency] = OrderedDict()
            fifo[key] = None
        self._lowest = lowest
        return np.frombuffer(hits, dtype=bool)

    # ------------------------------------------------------------------
    # Freshness API: embedding pushes arriving behind the read path.
    # ------------------------------------------------------------------
    def invalidate(self, table_index: int, rows: np.ndarray) -> int:
        """Drop pushed rows from the cache; returns rows actually dropped.

        Invalidations are counted in ``update_evictions``, *not* in the
        capacity ``evictions`` counter — the per-cause split freshness
        reports rely on.  Absent rows are a no-op.
        """
        keys = _pack(table_index, rows)
        if self._lru is not None:
            removed = self._lru.invalidate(keys)
        else:
            removed = 0
            classes = self._classes
            for key in keys.tolist():
                frequency = self._lfu.pop(key, None)
                if frequency is not None:
                    fifo = classes[frequency]
                    del fifo[key]
                    if not fifo:
                        del classes[frequency]
                    removed += 1
                    self._stale.discard(key)
            if self._lowest not in classes:
                self._lowest = min(classes, default=0)
        self.update_evictions += removed
        return removed

    def refresh(self, table_index: int, rows: np.ndarray) -> int:
        """Write a push through to resident rows; returns rows refreshed.

        Refreshing keeps the row resident and clears any staleness mark
        without touching recency or frequency (a push is not a read).
        Absent rows are not allocated — write-no-allocate keeps one-shot
        pushes from polluting the hot set.
        """
        keys = _pack(table_index, rows)
        if self._lru is not None:
            refreshed = self._lru.refresh(keys)
        else:
            refreshed = 0
            for key in keys.tolist():
                if key in self._lfu:
                    refreshed += 1
                    self._stale.discard(key)
        self.update_refreshes += refreshed
        return refreshed

    def mark_stale(self, table_index: int, rows: np.ndarray) -> int:
        """Mark resident pushed rows stale (``"ignore"`` freshness mode).

        Later hits on marked rows increment ``stale_hits`` — the run's
        correctness/staleness exposure when pushes are not applied.
        """
        keys = _pack(table_index, rows)
        if self._lru is not None:
            return self._lru.mark_stale(keys)
        marked = 0
        for key in keys.tolist():
            if key in self._lfu and key not in self._stale:
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
    values = parse_kv(body, "cache", known=("rows", "bytes"), positional="rows")
    capacity = {}
    for name, value in values.items():
        try:
            capacity[name] = int(value)
        except ValueError:
            raise ConfigurationError(
                f"cache spec field {name}={value!r} is not an integer setting"
            ) from None
    return CacheConfig(
        policy=policy,
        capacity_rows=capacity.get("rows"),
        capacity_bytes=capacity.get("bytes"),
    )
