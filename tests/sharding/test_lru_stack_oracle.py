"""The stack-distance LRU probe vs the per-row reference on long calls.

:class:`repro.sharding.cache.EmbeddingCache` decides every LRU hit of a
call at once from stack distances.  The short-call property in
``test_cache_oracle.py`` rarely reaches the accesses whose hit depends on
counting distinct keys exactly, so here calls run up to 300 rows over up
to 200 keys against capacities of 1-40, with pushes in between that leave
the cache below capacity.  A deterministic zipf replay then holds the
probe to :class:`tests.sharding.reference_cache.TupleKeyCache` at the
capacities the serving benchmarks use.  Every observable, the recency
order included, must agree after every operation, also when a call is
probed in several passes.  The exact count of repeats nested in a reuse
interval is checked against brute force.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import EmbeddingCache
from repro.sharding import cache as cache_module
from repro.sharding.cache import ROW_BITS
from repro.workloads import ZipfianTrace
from tests.sharding.reference_cache import TupleKeyCache

NUM_TABLES = 2
NUM_ROWS = 100
MODES = ("invalidate", "write-through", "ignore")


def recency(cache):
    """Resident ``(table, row)`` pairs, least recently used first."""
    if isinstance(cache, TupleKeyCache):
        return list(cache._lru)
    keys = cache._rows.keys.tolist()
    return [(key >> ROW_BITS, key & ((1 << ROW_BITS) - 1)) for key in keys]


def observables(cache, universe=None):
    seen = {
        "stats": cache.stats.to_dict(),
        "evictions": cache.evictions,
        "update_evictions": cache.update_evictions,
        "update_refreshes": cache.update_refreshes,
        "stale_hits": cache.stale_hits,
        "len": len(cache),
        "recency": recency(cache),
    }
    if universe is not None:
        seen["resident"] = {key for key in universe if key in cache}
    return seen


UNIVERSE = [(table, row) for table in range(NUM_TABLES) for row in range(NUM_ROWS)]


@st.composite
def key_lists(draw, span, longest):
    # An explicit length keeps long calls common; Hypothesis' own list
    # sizes stay short.
    size = draw(st.integers(0, longest))
    return draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))


@st.composite
def long_streams(draw):
    # A per-stream key span: narrow spans repeat keys within one call,
    # wide ones push distinct-key counts past the capacity.
    span = draw(st.integers(1, NUM_ROWS))
    lookup = st.tuples(
        st.just("lookup"),
        st.one_of(
            st.integers(0, NUM_TABLES - 1),
            st.lists(st.integers(0, NUM_TABLES - 1), min_size=300, max_size=300),
        ),
        key_lists(span, 300),
    )
    update = st.tuples(
        st.sampled_from(MODES),
        st.integers(0, NUM_TABLES - 1),
        key_lists(span, 60),
    )
    return draw(st.lists(st.one_of(lookup, lookup, update), max_size=12))


@settings(deadline=None)
@given(capacity=st.integers(1, 40), stream=long_streams())
def test_long_lru_calls_match_the_tuple_key_reference(capacity, stream):
    cache = EmbeddingCache(capacity_rows=capacity, policy="lru")
    reference = TupleKeyCache(capacity_rows=capacity, policy="lru")
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


def zipf_calls(num_calls, seed):
    """Per-shard-sized calls of an 8-table zipf stream, in (table, draw) order."""
    trace = ZipfianTrace(alpha=1.05)
    rng = np.random.default_rng(seed)
    tables = np.repeat(np.arange(8, dtype=np.int64), 1_000)
    for _ in range(num_calls):
        rows = np.concatenate([trace.draw(rng, 200_000, 1_000) for _ in range(8)])
        yield tables, rows


def test_zipf_replay_matches_the_reference_at_serving_capacities():
    for capacity, num_calls in ((4_096, 40), (65_536, 110)):
        cache = EmbeddingCache(capacity_rows=capacity, policy="lru")
        reference = TupleKeyCache(capacity_rows=capacity, policy="lru")
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
            assert observables(cache) == observables(reference)
        assert reference.evictions > 0, "the replay must fill the cache"
        assert reference.stale_hits > 0, "the replay must serve stale hits"


def test_long_calls_probe_in_passes_exactly(monkeypatch):
    """A call longer than one pass is probed in passes, with no trace of the seams."""
    monkeypatch.setattr(cache_module, "_PASS_ROWS", 97)
    cache = EmbeddingCache(capacity_rows=8_192, policy="lru")
    reference = TupleKeyCache(capacity_rows=8_192, policy="lru")
    for tables, rows in zipf_calls(8, seed=5):
        # Mark rows stale before every call, so stale hits span pass seams.
        pushed = rows[tables == 0][::3]
        assert cache.apply_update(0, pushed, "ignore") == (
            reference.apply_update(0, pushed, "ignore")
        )
        np.testing.assert_array_equal(
            cache.lookup(tables, rows), reference.lookup(tables, rows)
        )
        assert observables(cache) == observables(reference)
    assert reference.stale_hits > 0


def test_nested_reuse_counts_match_brute_force():
    """The grid count of repeats inside each reuse interval."""
    rng = np.random.default_rng(11)
    resident = 500
    keys = rng.zipf(1.3, size=3_000) % 800
    slots = rng.permutation(resident)
    prev = np.full(keys.size, -1, dtype=np.int64)
    seen = {}
    for position, key in enumerate(keys.tolist()):
        if key in seen:
            prev[position] = resident + seen[key]
        elif key < resident:
            prev[position] = slots[key]
        seen[key] = position
    reused = prev >= 0
    queries = np.flatnonzero(reused)
    expected = [np.count_nonzero(prev[:t] > prev[t]) for t in queries]
    np.testing.assert_array_equal(
        cache_module._nested_reuses(prev, reused, queries), expected
    )
