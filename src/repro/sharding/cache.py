"""Seed-deterministic hot-row embedding cache (LRU / LFU).

The paper's central observation is that embedding gathers dominate DLRM
inference; production traces additionally concentrate those gathers on a
small hot row set (the zipf / hot-cold models in :mod:`repro.workloads`).
An :class:`EmbeddingCache` sits in front of the host-memory gather on every
backend: rows that hit are served from device-local memory and skip the
host gather entirely, rows that miss are gathered and inserted.

Everything is deterministic given the construction arguments: LRU order is
the order of accesses, and LFU evicts the least-frequent row accessed
longest ago, ordering by ``(frequency, last access)`` (never randomness).
Two runs over the same lookup stream produce bit-identical
:class:`~repro.memsys.stats.CacheStats`.  Either policy decides a call many
rows at a time, with the same hits, evictions and final eviction order as
probing row by row: LRU by stack distance (see :class:`_LruRows`), LFU by
its frequency classes with a Python loop over misses only (see
:class:`_LfuRows`).  Two caches built with the same arguments always
agree.

Internally a row is keyed by one packed int, ``(table << 40) | row``.  The
packing is private to this module; :func:`check_key_space` rejects models
whose tables or table count would not fit it, and every probe range-checks
its rows, so two rows can never alias one key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError
from repro.memsys.stats import CacheStats
from repro.utils.specs import parse_kv, pop_number, split_spec

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


def _group(keys: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Group a pass by key, positions ascending inside each group.

    Returns ``order`` (the positions, grouped), ``starts`` / ``ends``
    (flags over ``order`` at each group's first and last position), each
    sorted position's ``group``, the ``unique`` keys ascending, and each
    position's group as ``dense``.  A quicksort by key gives each key a
    dense id, and a stable sort of those ids (a radix sort, in the
    narrowest dtype that holds them) orders each group by position.  One
    stable sort by key is several times slower than both.
    """
    n = keys.size
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
    return order, starts, ends, group, unique, dense


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

    def __contains__(self, key: int) -> bool:
        at = self._sorted.searchsorted(key)
        return bool(at < self._sorted.size and self._sorted[at] == key)

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
        order, starts, ends, group, unique, dense = _group(keys)
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


def _run_log(
    log: List[int], misses: List[int], after: np.ndarray
) -> Tuple[int, List[int], Optional[int]]:
    """Take each evicting miss's victim from the head of the LFU log.

    ``log`` holds each entry's next read, when it leaves the log by
    promotion; ``misses`` are the first reads that evict, ascending.  A
    victim's next read (``n`` if none) is a conflict: it misses, and
    evicts in turn.  Every miss appends its key's next read (``after``,
    per position of the pass) to ``log``.  Returns the entries examined,
    the conflicts, and the position of a miss that found the log empty
    (None if none did).  This is the one Python loop of an LFU pass, and
    it runs over misses only.
    """
    n = after.size
    heap = misses  # ascending, so already a heap
    after = after.tolist()
    conflicts: List[int] = []
    append = log.append
    pop, push = heapq.heappop, heapq.heappush
    head = 0
    try:
        while heap:
            t = pop(heap)
            # The head entry, less those promoted before t.
            read_at = log[head]
            head += 1
            while read_at < t:
                read_at = log[head]
                head += 1
            if read_at < n:
                push(heap, read_at)
                conflicts.append(read_at)
            append(after[t])
    except IndexError:
        return head, conflicts, t
    return head, conflicts, None


class _LfuRows:
    """LFU state as arrays, decided a pass at a time.

    ``keys`` holds the packed keys ascending, with aligned ``freq``,
    ``stamp`` and ``stale``.  ``stamp`` is the global tick of a key's last
    access, so the victim is the minimum ``(freq, stamp)``: the least
    frequent row, accessed longest ago.  An invalidated key stays behind as
    a tombstone (``freq == 0``) until the next pass that inserts keys
    rebuilds the arrays.

    The frequency classes of Shah, Mitra and Matani ("An O(1) algorithm
    for implementing the LFU cache eviction scheme", 2010) decide a pass.
    If the resident keys and the pass's new keys fit the capacity, nothing
    is evicted and the pass has a closed form.  Otherwise every access hits
    except the first read of a non-resident key and the next read of a key
    evicted earlier in the pass (a conflict).  While class 1 (``freq ==
    1``) is non-empty, the victim is the head of a first-in first-out log:
    the class-1 residents in ``stamp`` order, then each miss's key in time
    order, where an entry leaves the log at its key's next read.  So the
    Python loop runs over misses only.  A miss that finds class 1 empty
    ends the pass: the prefix commits, the ``(freq, stamp)`` minimum is
    evicted directly, and a new pass starts at the miss.
    """

    __slots__ = ("capacity", "keys", "freq", "stamp", "stale", "size", "tick")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keys = np.empty(0, dtype=np.int64)
        self.freq = np.empty(0, dtype=np.int64)
        self.stamp = np.empty(0, dtype=np.int64)
        self.stale = np.empty(0, dtype=bool)
        #: Resident keys (tombstones excluded), and accesses so far.
        self.size = 0
        self.tick = 0

    def __len__(self) -> int:
        return self.size

    def locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Index position of each key, and its slot (-1 if not indexed).

        A tombstone has a slot but is not resident.
        """
        at = np.searchsorted(self.keys, keys)
        if not self.keys.size:
            return at, np.full(keys.shape, -1, dtype=np.int64)
        inside = np.minimum(at, self.keys.size - 1)
        return at, np.where(self.keys[inside] == keys, inside, -1)

    def _resident(self, keys: np.ndarray) -> np.ndarray:
        """Slots of the resident keys among ``keys`` (repeats kept)."""
        slots = self.locate(keys)[1]
        slots = slots[slots >= 0]
        return slots[self.freq[slots] > 0]

    def __contains__(self, key: int) -> bool:
        at = self.keys.searchsorted(key)
        return bool(at < self.keys.size and self.keys[at] == key and self.freq[at])

    def _ranked(self) -> np.ndarray:
        """Slots of the resident keys, next victim first."""
        live = np.flatnonzero(self.freq)
        return live[np.lexsort((self.stamp[live], self.freq[live]))]

    def order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Resident keys and their frequencies, next victim first."""
        ranked = self._ranked()
        return self.keys[ranked], self.freq[ranked]

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Hit mask, evictions and stale hits of one call; updates the state."""
        hits = np.empty(keys.size, dtype=bool)
        evictions = stale_hits = 0
        start = 0
        while start < keys.size:
            part = keys[start:]
            stop, evicted, stale = self._pass(part, hits[start:])
            if stop < part.size:
                # Class 1 was empty at the miss at ``stop``.  The prefix's
                # own pass decides the same and runs to its end; then the
                # least frequent row is evicted directly.
                evicted = stale = 0
                if stop:
                    _, evicted, stale = self._pass(part[:stop], hits[start : start + stop])
                victim = self._ranked()[0]
                self.freq[victim] = 0
                self.stale[victim] = False
                self.size -= 1
                evicted += 1
            evictions += evicted
            stale_hits += stale
            start += stop
        return hits, evictions, stale_hits

    def _pass(self, keys: np.ndarray, hits: np.ndarray) -> Tuple[int, int, int]:
        """Decide ``keys`` into ``hits`` and commit them.

        Returns the rows decided (all of them), the evictions and the stale
        hits.  At a miss that finds class 1 empty it returns the miss's
        position instead, with nothing committed.
        """
        n = keys.size
        order, starts, ends, _, unique, dense = _group(keys)
        first = order[starts]
        last = order[ends]
        at, slot = self.locate(unique)
        indexed = slot >= 0
        freq = np.zeros(unique.size, dtype=np.int64)
        freq[indexed] = self.freq[slot[indexed]]
        found = freq > 0
        missed = np.sort(first[~found])
        free = self.capacity - self.size
        victims = times = conflicts = np.empty(0, dtype=np.int64)
        if missed.size > free:
            # Next read of the same key after each position, or n.
            after = np.empty(n, dtype=np.int64)
            after[order[:-1]] = order[1:]
            after[last] = n
            # The log: class-1 residents oldest first, then the key of each
            # miss in time order.  An entry is a dense key id, or ~slot for
            # a resident the pass never reads, and leaves the log at its
            # key's next read.  Each miss that evicts takes one entry, and
            # a resident is skipped as promoted, or taken with a conflict
            # to follow, only if the pass reads it.  So until the residents
            # run out, at most (misses that evict) + (class-1 residents
            # read) of them are examined, and only those oldest are sorted.
            ones = np.flatnonzero(self.freq == 1)
            reader = np.full(self.keys.size, -1, dtype=np.int64)
            reader[slot[found]] = np.flatnonzero(found)
            filled = missed[:free]
            evicting = missed[free:]
            reach = evicting.size + np.count_nonzero(reader[ones] >= 0)
            if reach < ones.size:
                ones = ones[np.argpartition(self.stamp[ones], reach)[:reach]]
            ones = ones[np.argsort(self.stamp[ones])]
            read = reader[ones]
            log = np.concatenate((np.where(read >= 0, first[read], n), after[filled])).tolist()
            head, conflicts, stop = _run_log(log, evicting.tolist(), after)
            if stop is not None:
                return stop, 0, 0
            # An examined entry was evicted unless its key was read before
            # the miss examined it, i.e. unless its next read was a hit.
            conflicts = np.array(conflicts, dtype=np.int64)
            times = np.sort(np.concatenate((evicting, conflicts)))
            examined = np.array(log[:head], dtype=np.int64)
            entries = np.concatenate(
                (np.where(read >= 0, read, ~ones), dense[filled], dense[times])
            )[:head]
            victims = entries[(examined == n) | np.isin(examined, conflicts)]

        hits[:] = True
        hits[missed] = False
        hits[conflicts] = False
        gone = ~victims[victims < 0]
        ours = victims >= 0
        # Each key's first and last eviction in the pass; a key keeps its
        # frequency and staleness only if it was never evicted, and counts
        # the reads after its last eviction.
        evicted_last = np.full(unique.size, -1, dtype=np.int64)
        np.maximum.at(evicted_last, victims[ours], times[ours])
        positions = np.arange(n)
        kept = evicted_last < 0
        freq[~kept] = 0
        freq += np.bincount(
            dense[positions > evicted_last[dense]], minlength=unique.size
        )
        stale = np.zeros(unique.size, dtype=bool)
        stale[found] = self.stale[slot[found]]
        stale_hits = 0
        if stale.any():
            evicted_first = np.full(unique.size, n, dtype=np.int64)
            np.minimum.at(evicted_first, victims[ours], times[ours])
            stale_hits = int(
                np.count_nonzero(stale[dense] & (positions < evicted_first[dense]))
            )
            stale &= kept
        stamp = last + self.tick + 1
        self.tick += n
        self.size += missed.size + conflicts.size - victims.size

        # Indexed keys (tombstones included) update in place; the rest are
        # merged in, which also drops every tombstone.
        self.freq[gone] = 0
        self.stale[gone] = False
        inplace = slot[indexed]
        self.freq[inplace] = freq[indexed]
        self.stamp[inplace] = stamp[indexed]
        self.stale[inplace] = stale[indexed]
        new = ~indexed & (freq > 0)
        if new.any():
            # Each new key goes after the resident keys below it.
            keep = np.flatnonzero(self.freq)
            put = np.searchsorted(keep, at[new]) + np.arange(np.count_nonzero(new))
            rest = np.ones(keep.size + put.size, dtype=bool)
            rest[put] = False
            rest = np.flatnonzero(rest)

            def merged(old: np.ndarray, values) -> np.ndarray:
                out = np.empty(rest.size + put.size, dtype=old.dtype)
                out[rest] = old[keep]
                out[put] = values
                return out

            self.keys = merged(self.keys, unique[new])
            self.freq = merged(self.freq, freq[new])
            self.stamp = merged(self.stamp, stamp[new])
            self.stale = merged(self.stale, False)
        return n, victims.size, stale_hits

    def invalidate(self, keys: np.ndarray) -> int:
        slots = np.unique(self._resident(keys))
        self.freq[slots] = 0
        self.stale[slots] = False
        self.size -= slots.size
        return slots.size

    def refresh(self, keys: np.ndarray) -> int:
        slots = self._resident(keys)
        self.stale[slots] = False
        return slots.size

    def mark_stale(self, keys: np.ndarray) -> int:
        slots = np.unique(self._resident(keys))
        fresh = slots[~self.stale[slots]]
        self.stale[fresh] = True
        return fresh.size


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
    """

    policy: str = "lru"
    capacity_rows: Optional[int] = None
    capacity_bytes: Optional[int] = None

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
    """

    def __init__(self, capacity_rows: int, policy: str = "lru"):
        if capacity_rows <= 0:
            raise ConfigurationError(
                f"capacity_rows must be positive, got {capacity_rows}"
            )
        if policy not in ("lru", "lfu"):
            raise ConfigurationError(
                f"cache policy must be 'lru' or 'lfu', got {policy!r}"
            )
        self.capacity_rows = capacity_rows
        self.policy = policy
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
        # Row state in packed keys (see _pack), stale flags included, held
        # in arrays and decided many rows at a time: LRU by stack distance,
        # LFU by its frequency classes.
        self._rows = (_LruRows if policy == "lru" else _LfuRows)(capacity_rows)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether the ``(table, row)`` pair is resident."""
        table_index, row = key
        if not (0 <= table_index < MAX_TABLES and 0 <= row < 1 << ROW_BITS):
            return False
        return (table_index << ROW_BITS | row) in self._rows

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
        hits, evictions, stale_hits = self._rows.probe(keys)
        self.evictions += evictions
        self.stale_hits += stale_hits
        hit_count = int(np.count_nonzero(hits))
        self.stats.record_counts(hits=hit_count, misses=keys.size - hit_count)
        return hits

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
        removed = self._rows.invalidate(keys)
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
        refreshed = self._rows.refresh(keys)
        self.update_refreshes += refreshed
        return refreshed

    def mark_stale(self, table_index: int, rows: np.ndarray) -> int:
        """Mark resident pushed rows stale (``"ignore"`` freshness mode).

        Later hits on marked rows increment ``stale_hits`` — the run's
        correctness/staleness exposure when pushes are not applied.
        """
        keys = _pack(table_index, rows)
        return self._rows.mark_stale(keys)

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


#: Cache policies by spec name.
_POLICIES = {"lru": "lru", "lfu": "lfu"}


def parse_cache_spec(spec: Optional[str]) -> Optional[CacheConfig]:
    """Build a :class:`CacheConfig` from ``"lru:rows=4096"`` / ``"lfu:bytes=1048576"``.

    ``None``, ``""``, ``"off"`` and ``"none"`` mean no cache.  A bare count
    (``"lru:4096"``) is interpreted as rows.
    """
    policy, body = split_spec(spec, _POLICIES, "cache policy", optional=True)
    if policy is None:
        return None
    values = parse_kv(body, "cache", known=("rows", "bytes"), positional="rows")
    if not values:
        raise ConfigurationError(
            f"cache spec {spec!r} needs a capacity, e.g. 'lru:rows=4096'"
        )
    return CacheConfig(
        policy=policy,
        capacity_rows=pop_number(values, "rows", "cache", whole=True),
        capacity_bytes=pop_number(values, "bytes", "cache", whole=True),
    )
