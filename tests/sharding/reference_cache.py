"""Tuple-keyed reference model of the hot-row cache (test oracle only).

This is the straightforward per-row formulation of
:class:`repro.sharding.cache.EmbeddingCache`: ``(table, row)`` tuple keys,
one stats update per row, no batching across tables.  The production cache
packs keys into ints and probes a whole batch per call; the property tests
in ``test_cache_oracle.py`` hold it to this model access for access.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

from repro.memsys.stats import CacheStats


class TupleKeyCache:
    """LRU / LFU over ``(table, row)`` tuples, one row at a time."""

    def __init__(self, capacity_rows: int, policy: str = "lru"):
        self.capacity_rows = capacity_rows
        self.policy = policy
        self.stats = CacheStats()
        self.evictions = 0
        self.update_evictions = 0
        self.update_refreshes = 0
        self.stale_hits = 0
        self._stale = set()
        self._tick = 0
        self._lru = OrderedDict()
        self._lfu = {}
        self._heap = []

    def _resident(self):
        return self._lru if self.policy == "lru" else self._lfu

    def __contains__(self, key) -> bool:
        return key in self._resident()

    def __len__(self) -> int:
        return len(self._resident())

    def access(self, table: int, row: int) -> bool:
        """One read of ``(table, row)``; returns whether it hit."""
        key = (table, row)
        if self.policy == "lru":
            hit = key in self._lru
            self.stats.record(hit)
            if hit:
                self._lru.move_to_end(key)
                if key in self._stale:
                    self.stale_hits += 1
                return True
            if len(self._lru) >= self.capacity_rows:
                evicted, _ = self._lru.popitem(last=False)
                self.evictions += 1
                self._stale.discard(evicted)
            self._lru[key] = None
            return False
        entry = self._lfu.get(key)
        hit = entry is not None
        self.stats.record(hit)
        self._tick += 1
        if hit:
            frequency = entry[0] + 1
            if key in self._stale:
                self.stale_hits += 1
        else:
            if len(self._lfu) >= self.capacity_rows:
                self._evict_lfu()
            frequency = 1
        self._lfu[key] = (frequency, self._tick)
        heapq.heappush(self._heap, (frequency, self._tick, key))
        return hit

    def _evict_lfu(self) -> None:
        while True:
            frequency, tick, key = heapq.heappop(self._heap)
            if self._lfu.get(key) == (frequency, tick):
                del self._lfu[key]
                self.evictions += 1
                self._stale.discard(key)
                return

    def lookup(self, tables, rows) -> np.ndarray:
        """Per-row reads; ``tables`` is one index or one per row."""
        rows = np.asarray(rows, dtype=np.int64).tolist()
        tables = np.broadcast_to(np.asarray(tables, dtype=np.int64), (len(rows),)).tolist()
        return np.array(
            [self.access(table, row) for table, row in zip(tables, rows)], dtype=bool
        )

    def apply_update(self, table: int, rows, mode: str) -> int:
        cache = self._resident()
        affected = 0
        for row in np.asarray(rows, dtype=np.int64).tolist():
            key = (table, row)
            if key not in cache:
                continue
            if mode == "invalidate":
                del cache[key]
                self._stale.discard(key)
                affected += 1
            elif mode == "write-through":
                self._stale.discard(key)
                affected += 1
            elif key not in self._stale:
                self._stale.add(key)
                affected += 1
        if mode == "invalidate":
            self.update_evictions += affected
        elif mode == "write-through":
            self.update_refreshes += affected
        return affected
