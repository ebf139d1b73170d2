"""Packed-key, batch-probing cache vs the tuple-keyed per-row reference.

:class:`repro.sharding.cache.EmbeddingCache` packs ``(table, row)`` into one
int and probes whole multi-table batches per call.  Here it is driven with
random streams (in-call duplicates, mixed tables, interleaved freshness
pushes) beside :class:`tests.sharding.reference_cache.TupleKeyCache`, and
every observable must agree access for access.  The key-packing guards are
pinned too, so two rows can never alias one key.
"""

import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.errors import ConfigurationError
from repro.serving import Fleet, FleetSpec
from repro.sharding import EmbeddingCache
from repro.sharding import cache as cache_module
from repro.sharding.cache import MAX_TABLES, ROW_BITS, check_key_space
from tests.sharding.reference_cache import TupleKeyCache

NUM_TABLES = 3
NUM_ROWS = 12

rows_strategy = st.lists(st.integers(0, NUM_ROWS - 1), min_size=0, max_size=24)
lookup_op = st.tuples(
    st.just("lookup"),
    st.one_of(
        st.integers(0, NUM_TABLES - 1),
        st.lists(st.integers(0, NUM_TABLES - 1), min_size=24, max_size=24),
    ),
    rows_strategy,
)
update_op = st.tuples(
    st.sampled_from(["invalidate", "write-through", "ignore"]),
    st.integers(0, NUM_TABLES - 1),
    rows_strategy,
)
stream_strategy = st.lists(st.one_of(lookup_op, lookup_op, update_op), max_size=40)


def observables(cache):
    return {
        "stats": cache.stats.to_dict(),
        "evictions": cache.evictions,
        "update_evictions": cache.update_evictions,
        "update_refreshes": cache.update_refreshes,
        "stale_hits": cache.stale_hits,
        "len": len(cache),
        "resident": {
            (table, row)
            for table in range(NUM_TABLES)
            for row in range(NUM_ROWS)
            if (table, row) in cache
        },
    }


# At least 150 examples, and the whole "deep" profile when it is selected.
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(
    policy=st.sampled_from(["lru", "lfu"]),
    capacity=st.integers(1, 10),
    stream=stream_strategy,
)
def test_packed_cache_matches_the_tuple_key_reference(policy, capacity, stream):
    cache = EmbeddingCache(capacity_rows=capacity, policy=policy)
    reference = TupleKeyCache(capacity_rows=capacity, policy=policy)
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
        assert observables(cache) == observables(reference)
    cache.stats.validate()


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_one_batched_call_equals_per_table_calls(policy):
    """A per-row table array probes exactly like consecutive per-table calls."""
    rng = np.random.default_rng(2)
    tables = np.repeat(np.arange(4), 50)
    rows = rng.integers(0, 40, size=tables.size)
    batched = EmbeddingCache(capacity_rows=16, policy=policy)
    split = EmbeddingCache(capacity_rows=16, policy=policy)
    for _ in range(3):
        expected = np.concatenate(
            [split.lookup(table, rows[tables == table]) for table in range(4)]
        )
        np.testing.assert_array_equal(batched.lookup(tables, rows), expected)
    assert batched.stats == split.stats
    assert batched.evictions == split.evictions


class TestKeyPackingGuards:
    def test_rows_past_the_row_field_are_rejected_not_aliased(self):
        cache = EmbeddingCache(capacity_rows=4)
        cache.lookup(1, np.array([0]))
        # (0, 2**40) would pack to the same int as (1, 0).
        with pytest.raises(ConfigurationError):
            cache.lookup(0, np.array([1 << ROW_BITS]))
        assert cache.stats.accesses == 1

    @pytest.mark.parametrize(
        "tables, rows",
        [
            (0, [-1]),
            (-1, [0]),
            (MAX_TABLES, [0]),
            (np.array([0, MAX_TABLES]), [1, 2]),
            (np.array([0, -3]), [1, 2]),
        ],
    )
    def test_out_of_range_keys_are_rejected(self, tables, rows):
        cache = EmbeddingCache(capacity_rows=4)
        with pytest.raises(ConfigurationError):
            cache.lookup(tables, np.asarray(rows, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            cache.invalidate(np.asarray(tables).flat[-1], np.asarray(rows))

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    @pytest.mark.parametrize("tables", [[1], [0, 1], [[0, 1, 2]]])
    def test_misaligned_table_array_is_rejected(self, policy, tables):
        cache = EmbeddingCache(capacity_rows=4, policy=policy)
        tables = np.asarray(tables)
        with pytest.raises(ConfigurationError, match=re.escape(f"{tables.shape}")):
            cache.lookup(tables, np.array([0, 1, 2]))
        assert cache.stats.accesses == 0 and len(cache) == 0

    def test_scalar_table_probes_every_row(self):
        cache = EmbeddingCache(capacity_rows=4)
        assert cache.lookup(np.array(1), np.array([0, 1])).tolist() == [False, False]
        assert cache.lookup(np.int64(1), np.array([1, 0])).tolist() == [True, True]

    def test_out_of_range_tuples_are_simply_absent(self):
        cache = EmbeddingCache(capacity_rows=4)
        cache.lookup(1, np.array([0]))
        assert (1, 0) in cache
        assert (0, 1 << ROW_BITS) not in cache
        assert (-1, 0) not in cache

    def test_largest_packable_key_round_trips(self):
        cache = EmbeddingCache(capacity_rows=4)
        last_row = (1 << ROW_BITS) - 1
        cache.lookup(MAX_TABLES - 1, np.array([last_row]))
        assert (MAX_TABLES - 1, last_row) in cache
        assert cache.lookup(MAX_TABLES - 1, np.array([last_row])).tolist() == [True]

    def test_check_key_space_bounds(self):
        fits = homogeneous_dlrm(
            name="fits", num_tables=2, rows_per_table=1 << ROW_BITS, gathers_per_table=1
        )
        check_key_space(fits)
        too_tall = homogeneous_dlrm(
            name="tall", num_tables=2, rows_per_table=(1 << ROW_BITS) + 1,
            gathers_per_table=1,
        )
        with pytest.raises(ConfigurationError, match="rows"):
            check_key_space(too_tall)
        too_wide = types.SimpleNamespace(name="wide", num_tables=MAX_TABLES + 1, tables=())
        with pytest.raises(ConfigurationError, match="tables"):
            check_key_space(too_wide)

    def test_group_construction_rejects_unpackable_models(self, monkeypatch):
        too_tall = homogeneous_dlrm(
            name="tall", num_tables=2, rows_per_table=(1 << ROW_BITS) + 1,
            gathers_per_table=1,
        )
        with pytest.raises(ConfigurationError):
            Fleet("centaur", too_tall, FleetSpec(shards=2), HARPV2_SYSTEM)
        wide = homogeneous_dlrm(
            name="wide", num_tables=6, rows_per_table=100, gathers_per_table=1
        )
        monkeypatch.setattr(cache_module, "MAX_TABLES", 4)
        with pytest.raises(ConfigurationError, match="tables"):
            Fleet("centaur", wide, FleetSpec(shards=2), HARPV2_SYSTEM)
