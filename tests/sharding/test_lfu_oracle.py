"""The frequency-class LFU vs the heap-ordered per-row reference.

:class:`repro.sharding.cache.EmbeddingCache` keeps LFU state as one
first-in first-out queue of keys per frequency, and evicts the head of the
lowest queue.  :class:`tests.sharding.reference_cache.TupleKeyCache` orders
residents by ``(frequency, last-access tick)`` in a lazy min-heap instead.
The two must pick the same victim on every miss, so here long calls (up to
300 rows over up to 200 keys, capacities of 1-40) with pushes of every
mode in between, and then a deterministic zipf replay at the capacities the
serving benchmarks use, hold the cache to the reference after every
operation: hits, every counter, the resident set, each row's frequency and
the full eviction order (every eighth call of the replay, where sorting the
reference dominates the run time).
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
    return [
        ((key >> ROW_BITS, key & ((1 << ROW_BITS) - 1)), frequency)
        for frequency in sorted(cache._classes)
        for key in cache._classes[frequency]
    ]


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
