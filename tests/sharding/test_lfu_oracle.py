"""The pass-at-a-time LFU vs the heap-ordered per-row reference.

:class:`repro.sharding.cache.EmbeddingCache` keeps LFU state as arrays and
decides a whole call at once: in closed form when it cannot evict, and
otherwise by a loop over its misses that takes each victim from a
first-in first-out log of the frequency-1 rows, or from the
``(frequency, last access)`` minimum when no row has frequency 1.
:class:`tests.sharding.reference_cache.TupleKeyCache` orders residents by
``(frequency, last-access tick)`` in a lazy min-heap instead.  The two must
pick the same victim on every miss.  Small fixed cases walk each path of a
pass; then long calls (up to 300 rows over up to 200 keys, capacities of
1-40) with pushes of every mode in between, and a deterministic zipf
replay at the capacities the serving benchmarks use, hold the cache to the
reference after every operation: hits, every counter, the resident set,
each row's frequency and the full eviction order (every eighth call of the
replay, where sorting the reference dominates the run time).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import EmbeddingCache
from repro.sharding.cache import ROW_BITS
from tests.sharding.reference_cache import TupleKeyCache
from tests.sharding.test_lru_stack_oracle import MODES, UNIVERSE, long_streams, zipf_calls


def eviction_order(cache):
    """Resident ``((table, row), frequency)`` pairs, next victim first."""
    if isinstance(cache, TupleKeyCache):
        order = sorted(cache._lfu, key=cache._lfu.__getitem__)
        return [(key, cache._lfu[key][0]) for key in order]
    keys, frequencies = cache._rows.order()
    return [
        ((key >> ROW_BITS, key & ((1 << ROW_BITS) - 1)), frequency)
        for key, frequency in zip(keys.tolist(), frequencies.tolist())
    ]


def rows(*values):
    return np.asarray(values, dtype=np.int64)


def replay(capacity, steps):
    """Drive the cache and the reference through ``steps`` on table 0.

    A step is ``("lookup", rows)`` or ``(mode, rows)`` for a push.  Both
    must agree after every step; returns the cache and each lookup's hits.
    """
    cache = EmbeddingCache(capacity_rows=capacity, policy="lfu")
    reference = TupleKeyCache(capacity_rows=capacity, policy="lfu")
    hits = []
    for kind, keys in steps:
        if kind == "lookup":
            hits.append(cache.lookup(0, keys).tolist())
            assert hits[-1] == reference.lookup(0, keys).tolist()
        else:
            assert cache.apply_update(0, keys, kind) == reference.apply_update(0, keys, kind)
        assert observables(cache) == observables(reference)
    return cache, hits


def counters(cache):
    return (
        cache.stats.hits,
        cache.stats.misses,
        cache.evictions,
        cache.update_evictions,
        cache.update_refreshes,
        cache.stale_hits,
    )


def order_of(cache):
    """``(row, frequency)`` pairs of table 0, next victim first."""
    return [(row, frequency) for (_, row), frequency in eviction_order(cache)]


def test_a_call_that_cannot_evict_is_closed_form():
    cache, hits = replay(4, [("lookup", rows(1, 2, 1)), ("lookup", rows(3, 1, 2, 3))])
    assert hits == [[False, False, True], [False, True, True, True]]
    assert counters(cache) == (4, 3, 0, 0, 0, 0)
    assert order_of(cache) == [(2, 2), (3, 2), (1, 3)]


def test_a_call_that_fills_the_cache_then_evicts():
    cache, hits = replay(3, [("lookup", rows(1, 2, 1, 3, 4, 5))])
    # 4 evicts 2 (frequency 1, oldest), 5 evicts 3; 1 was promoted.
    assert hits == [[False, False, True, False, False, False]]
    assert counters(cache) == (1, 5, 2, 0, 0, 0)
    assert order_of(cache) == [(4, 1), (5, 1), (1, 2)]


def test_a_row_evicted_and_reread_in_one_call_misses_again():
    cache, hits = replay(2, [("lookup", rows(1, 2)), ("lookup", rows(3, 1, 1))])
    # 3 evicts 1; 1's next read is a conflict miss that evicts 2.
    assert hits == [[False, False], [False, False, True]]
    assert counters(cache) == (1, 4, 2, 0, 0, 0)
    assert order_of(cache) == [(3, 1), (1, 2)]


def test_a_miss_with_no_frequency_one_row_evicts_the_least_frequent():
    cache, hits = replay(2, [("lookup", rows(7, 7, 8, 8, 9))])
    # 7 and 8 both reach frequency 2; 7 was read longer ago.
    assert hits == [[False, True, False, True, False]]
    assert counters(cache) == (2, 3, 1, 0, 0, 0)
    assert order_of(cache) == [(9, 1), (8, 2)]


def test_an_invalidated_row_reread_reuses_its_tombstone():
    cache, hits = replay(
        3,
        [("lookup", rows(1, 2, 3)), ("invalidate", rows(2)), ("lookup", rows(2, 2, 1))],
    )
    assert hits == [[False, False, False], [False, True, True]]
    assert counters(cache) == (2, 4, 0, 1, 0, 0)
    assert order_of(cache) == [(3, 1), (2, 2), (1, 2)]
    assert cache._rows.keys.tolist() == [1, 2, 3]


def test_stale_hits_stop_at_the_eviction_of_a_stale_row():
    cache, hits = replay(
        2,
        [
            ("lookup", rows(1, 2)),
            ("ignore", rows(1, 2)),
            # 1 hits stale; 3 evicts 2; 2 comes back fresh, evicting 3.
            ("lookup", rows(1, 3, 2, 1)),
            # 1 is still stale, 2 no longer.
            ("lookup", rows(2, 1)),
        ],
    )
    assert hits == [[False, False], [True, False, False, True], [True, True]]
    assert counters(cache) == (4, 4, 2, 0, 0, 3)
    assert order_of(cache) == [(2, 2), (1, 4)]


def observables(cache, universe=None, order=True):
    seen = {
        "stats": cache.stats.to_dict(),
        "evictions": cache.evictions,
        "update_evictions": cache.update_evictions,
        "update_refreshes": cache.update_refreshes,
        "stale_hits": cache.stale_hits,
        "len": len(cache),
    }
    if order:
        seen["order"] = eviction_order(cache)
    if universe is not None:
        seen["resident"] = {key for key in universe if key in cache}
    return seen


@settings(deadline=None)
@given(capacity=st.integers(1, 40), stream=long_streams())
def test_long_lfu_calls_match_the_heap_reference(capacity, stream):
    cache = EmbeddingCache(capacity_rows=capacity, policy="lfu")
    reference = TupleKeyCache(capacity_rows=capacity, policy="lfu")
    for kind, tables, rows in stream:
        rows = np.asarray(rows, dtype=np.int64)
        if kind == "lookup":
            if isinstance(tables, list):
                tables = np.asarray(tables[: rows.size], dtype=np.int64)
            hits = cache.lookup(tables, rows)
            assert hits.dtype == bool and hits.shape == rows.shape
            np.testing.assert_array_equal(hits, reference.lookup(tables, rows))
        else:
            assert cache.apply_update(tables, rows, kind) == reference.apply_update(
                tables, rows, kind
            )
        assert observables(cache, UNIVERSE) == observables(reference, UNIVERSE)
    cache.stats.validate()


def test_zipf_replay_matches_the_reference_at_serving_capacities():
    for capacity, num_calls in ((8_192, 24), (65_536, 110)):
        cache = EmbeddingCache(capacity_rows=capacity, policy="lfu")
        reference = TupleKeyCache(capacity_rows=capacity, policy="lfu")
        for call, (tables, rows) in enumerate(zipf_calls(num_calls, seed=capacity)):
            np.testing.assert_array_equal(
                cache.lookup(tables, rows), reference.lookup(tables, rows)
            )
            if call % 4 == 3:
                # A push between calls: every mode, over hot and cold rows.
                mode = MODES[(call // 4) % 3]
                pushed = rows[::37]
                assert cache.apply_update(call % 8, pushed, mode) == (
                    reference.apply_update(call % 8, pushed, mode)
                )
            order = call % 8 == 7 or call == num_calls - 1
            assert observables(cache, order=order) == observables(reference, order=order)
        assert reference.evictions > 0, "the replay must fill the cache"
        assert reference.update_evictions > 0, "the replay must invalidate rows"
        assert reference.stale_hits > 0, "the replay must serve stale hits"
