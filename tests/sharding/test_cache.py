"""Unit tests for the hot-row embedding cache (LRU / LFU) and its specs."""

import numpy as np
import pytest

from repro.config.models import homogeneous_dlrm
from repro.errors import ConfigurationError
from repro.sharding import CacheConfig, EmbeddingCache, parse_cache_spec


def rows(*values):
    return np.asarray(values, dtype=np.int64)


class TestLRU:
    def test_cold_rows_miss_then_hit(self):
        cache = EmbeddingCache(capacity_rows=4, policy="lru")
        first = cache.lookup(0, rows(1, 2, 3))
        assert first.tolist() == [False, False, False]
        second = cache.lookup(0, rows(1, 2, 3))
        assert second.tolist() == [True, True, True]
        assert cache.stats.accesses == 6
        assert cache.stats.hits == 3
        assert cache.evictions == 0

    def test_least_recently_used_row_evicted(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lru")
        cache.lookup(0, rows(1, 2))
        cache.lookup(0, rows(1))      # refresh 1; 2 is now LRU
        cache.lookup(0, rows(3))      # evicts 2
        assert cache.evictions == 1
        assert cache.lookup(0, rows(1)).tolist() == [True]
        assert cache.lookup(0, rows(2)).tolist() == [False]

    def test_repeated_row_in_one_call_hits_its_second_occurrence(self):
        cache = EmbeddingCache(capacity_rows=4, policy="lru")
        assert cache.lookup(0, rows(7, 7, 7)).tolist() == [False, True, True]

    def test_tables_are_distinct_key_spaces(self):
        cache = EmbeddingCache(capacity_rows=4, policy="lru")
        cache.lookup(0, rows(5))
        assert cache.lookup(1, rows(5)).tolist() == [False]


class TestLFU:
    def test_least_frequent_row_evicted(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        cache.lookup(0, rows(1, 1, 1))   # freq(1) = 3
        cache.lookup(0, rows(2))         # freq(2) = 1
        cache.lookup(0, rows(3))         # evicts 2 (lowest frequency)
        assert cache.lookup(0, rows(1)).tolist() == [True]
        assert cache.lookup(0, rows(2)).tolist() == [False]

    def test_frequency_tie_breaks_toward_oldest_access(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        cache.lookup(0, rows(1))
        cache.lookup(0, rows(2))         # both freq 1; 1 accessed earlier
        cache.lookup(0, rows(3))         # evicts 1
        assert cache.lookup(0, rows(2)).tolist() == [True]
        assert cache.lookup(0, rows(1)).tolist() == [False]

    def test_frequency_classes_hold_one_entry_per_resident_row(self):
        """Long hit streams update rows in place, never copy them."""
        cache = EmbeddingCache(capacity_rows=32, policy="lfu")
        hot = np.arange(32, dtype=np.int64)
        for _ in range(500):
            cache.lookup(0, hot)
        assert cache.stats.hits > 15_000
        keys, frequencies = cache._rows.order()
        assert sorted(keys.tolist()) == sorted(cache._rows.keys.tolist()) == hot.tolist()
        assert frequencies.tolist() == [500] * 32, "every read lands on its one entry"
        assert len(cache) == 32

    def test_hot_rows_survive_a_cold_scan(self):
        cache = EmbeddingCache(capacity_rows=8, policy="lfu")
        hot = rows(0, 1, 2, 3)
        for _ in range(5):
            cache.lookup(0, hot)
        cache.lookup(0, np.arange(100, 140, dtype=np.int64))  # cold scan
        assert cache.lookup(0, hot).all(), "frequent rows must outlive the scan"


class TestEvictionAccounting:
    def test_lru_duplicate_rows_in_one_lookup_count_exact_evictions(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lru")
        hits = cache.lookup(0, rows(5, 5, 6, 7, 5))
        # 5 miss, 5 hit, 6 miss (fills), 7 miss (evicts 5 — its hit made 6
        # the newer entry but 5 the older *insert*... recency order is
        # [5, 6] after the hit refresh, so 5 is evicted), 5 miss again.
        assert hits.tolist() == [False, True, False, False, False]
        assert cache.stats.accesses == 5
        assert cache.stats.hits == 1
        assert cache.stats.misses == 4
        assert cache.evictions == 2

    def test_lfu_duplicate_rows_in_one_lookup_count_exact_evictions(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        hits = cache.lookup(0, rows(5, 5, 6, 7, 5))
        # 5 miss, 5 hit (freq 2), 6 miss (fills), 7 miss (evicts 6, the
        # lowest-frequency entry), 5 hit (freq 3, still resident).
        assert hits.tolist() == [False, True, False, False, True]
        assert cache.stats.accesses == 5
        assert cache.stats.hits == 2
        assert cache.stats.misses == 3
        assert cache.evictions == 1

    def test_lfu_long_hit_streams_preserve_eviction_order(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        cache.lookup(0, rows(1, 2))
        # Each hit moves row 1 up one frequency class, leaving exactly one
        # entry per resident row.
        for _ in range(30):
            cache.lookup(0, rows(1))
        keys, frequencies = cache._rows.order()
        assert keys.tolist() == [2, 1]
        assert frequencies.tolist() == [1, 31]
        assert cache.stats.hits == 30
        # The cold row 2 (freq 1) is evicted, not the hot row 1 (freq 31).
        cache.lookup(0, rows(9))
        assert cache.evictions == 1
        assert (0, 1) in cache
        assert (0, 2) not in cache


class TestFreshness:
    """The invalidate / refresh / mark_stale API behind update streams."""

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_invalidate_drops_rows_and_counts_apart_from_evictions(self, policy):
        cache = EmbeddingCache(capacity_rows=8, policy=policy)
        cache.lookup(0, rows(1, 2, 3))
        removed = cache.invalidate(0, rows(2, 3, 99))  # 99 absent: no-op
        assert removed == 2
        assert cache.update_evictions == 2
        assert cache.evictions == 0
        assert cache.lookup(0, rows(1, 2, 3)).tolist() == [True, False, False]

    def test_lru_refresh_does_not_touch_recency(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lru")
        cache.lookup(0, rows(1, 2))
        assert cache.refresh(0, rows(1)) == 1
        assert cache.update_refreshes == 1
        cache.lookup(0, rows(3))  # evicts 1: the refresh was not a read
        assert (0, 1) not in cache
        assert (0, 2) in cache

    def test_lfu_refresh_does_not_touch_frequency(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        cache.lookup(0, rows(1))
        cache.lookup(0, rows(2, 2))  # freq(2) = 2 > freq(1) = 1
        cache.refresh(0, rows(1))
        cache.lookup(0, rows(3))  # still evicts 1, the least frequent
        assert (0, 1) not in cache
        assert (0, 2) in cache

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_refresh_does_not_allocate_absent_rows(self, policy):
        cache = EmbeddingCache(capacity_rows=8, policy=policy)
        assert cache.refresh(0, rows(7)) == 0
        assert (0, 7) not in cache
        assert cache.update_refreshes == 0

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_mark_stale_counts_hits_until_refreshed(self, policy):
        cache = EmbeddingCache(capacity_rows=8, policy=policy)
        cache.lookup(0, rows(1, 2))
        assert cache.mark_stale(0, rows(1, 99)) == 1  # 99 absent
        assert cache.lookup(0, rows(1, 2)).all()
        assert cache.stale_hits == 1
        cache.refresh(0, rows(1))
        cache.lookup(0, rows(1))
        assert cache.stale_hits == 1  # refresh cleared the mark

    def test_lfu_heap_stays_consistent_after_invalidate(self):
        cache = EmbeddingCache(capacity_rows=2, policy="lfu")
        cache.lookup(0, rows(1, 2))
        cache.invalidate(0, rows(1))
        # Row 1 left the eviction order with it; eviction must take the
        # true least-frequent resident.
        assert [key.tolist() for key in cache._rows.order()] == [[2], [1]]
        cache.lookup(0, rows(3, 4))
        assert cache.evictions == 1
        assert (0, 2) not in cache
        assert (0, 4) in cache
        assert [key.tolist() for key in cache._rows.order()] == [[3, 4], [1, 1]]

    def test_apply_update_dispatches_and_rejects_bad_modes(self):
        cache = EmbeddingCache(capacity_rows=8, policy="lru")
        cache.lookup(0, rows(1, 2, 3))
        assert cache.apply_update(0, rows(1), "invalidate") == 1
        assert cache.apply_update(0, rows(2), "write-through") == 1
        assert cache.apply_update(0, rows(3), "ignore") == 1
        assert cache.update_evictions == 1
        assert cache.update_refreshes == 1
        with pytest.raises(ConfigurationError):
            cache.apply_update(0, rows(1), "drop")


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_same_stream_produces_identical_stats(self, policy):
        stream = np.random.default_rng(3).integers(0, 50, size=400)
        a = EmbeddingCache(capacity_rows=16, policy=policy)
        b = EmbeddingCache(capacity_rows=16, policy=policy)
        hits_a = [a.lookup(0, chunk) for chunk in np.split(stream, 8)]
        hits_b = [b.lookup(0, chunk) for chunk in np.split(stream, 8)]
        for left, right in zip(hits_a, hits_b):
            assert np.array_equal(left, right)
        assert a.stats.to_dict() == b.stats.to_dict()
        assert a.evictions == b.evictions

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_stats_stay_consistent(self, policy):
        cache = EmbeddingCache(capacity_rows=8, policy=policy)
        cache.lookup(0, np.random.default_rng(5).integers(0, 30, size=200))
        cache.stats.validate()
        assert len(cache) <= 8


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EmbeddingCache(capacity_rows=0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            EmbeddingCache(capacity_rows=4, policy="mru")


class TestCacheConfig:
    def test_rows_capacity_passes_through(self):
        model = homogeneous_dlrm(
            name="cfg", num_tables=2, rows_per_table=100, gathers_per_table=2
        )
        cache = CacheConfig(policy="lfu", capacity_rows=64).build(model)
        assert cache.capacity_rows == 64
        assert cache.policy == "lfu"

    def test_byte_capacity_resolves_against_row_bytes(self):
        model = homogeneous_dlrm(
            name="cfg-bytes",
            num_tables=2,
            rows_per_table=100,
            gathers_per_table=2,
            embedding_dim=32,  # 128-byte rows
        )
        config = CacheConfig(policy="lru", capacity_bytes=128 * 10)
        assert config.resolve_rows(model) == 10

    def test_byte_capacity_below_one_row_rejected(self):
        model = homogeneous_dlrm(
            name="cfg-tiny", num_tables=1, rows_per_table=10, gathers_per_table=1
        )
        with pytest.raises(ConfigurationError):
            CacheConfig(capacity_bytes=8).resolve_rows(model)

    def test_byte_capacity_tracks_the_dtype_width(self, monkeypatch):
        """Regression: sizing used a hardcoded ``embedding_dim * 4`` instead
        of the DTYPE_BYTES-derived ``row_bytes``, so a wider dtype silently
        doubled the row budget."""
        model = homogeneous_dlrm(
            name="cfg-dtype",
            num_tables=2,
            rows_per_table=100,
            gathers_per_table=2,
            embedding_dim=32,
        )
        config = CacheConfig(policy="lru", capacity_bytes=128 * 10)
        assert config.resolve_rows(model) == 10
        monkeypatch.setattr("repro.config.models.DTYPE_BYTES", 8)
        assert config.resolve_rows(model) == 5

    def test_exactly_one_capacity_required(self):
        with pytest.raises(ConfigurationError):
            CacheConfig()
        with pytest.raises(ConfigurationError):
            CacheConfig(capacity_rows=4, capacity_bytes=4096)

    def test_seed_is_not_a_cache_parameter(self):
        # No replacement policy draws random numbers, so a cache has no seed.
        with pytest.raises(ConfigurationError, match="unknown cache parameter 'seed'"):
            parse_cache_spec("lru:rows=8,seed=1")

    def test_describe_round_trips_through_the_spec_parser(self):
        config = CacheConfig(policy="lfu", capacity_rows=128)
        assert parse_cache_spec(config.describe()) == config


class TestSpecParsing:
    def test_rows_spec(self):
        config = parse_cache_spec("lru:rows=4096")
        assert config == CacheConfig(policy="lru", capacity_rows=4096)

    def test_bytes_spec(self):
        config = parse_cache_spec("lfu:bytes=1048576")
        assert config == CacheConfig(policy="lfu", capacity_bytes=1048576)

    def test_bare_count_means_rows(self):
        assert parse_cache_spec("lru:512") == CacheConfig(policy="lru", capacity_rows=512)

    @pytest.mark.parametrize(
        "spec, rows", [("lru:rows=4096.0", 4096), ("lru:rows=1e4", 10_000), ("lru:2e3", 2_000)]
    )
    def test_whole_valued_numbers_are_accepted(self, spec, rows):
        config = parse_cache_spec(spec)
        assert config == CacheConfig(policy="lru", capacity_rows=rows)
        assert type(config.capacity_rows) is int

    @pytest.mark.parametrize("spec", [None, "", "off", "none"])
    def test_disabled_specs(self, spec):
        assert parse_cache_spec(spec) is None

    @pytest.mark.parametrize("spec", ["lru", "mru:rows=4", "lru:pages=4", "lru:rows=x"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_cache_spec(spec)

    @pytest.mark.parametrize("spec", ["lru:rows=1024,rows=64", "lfu:4096,rows=8"])
    def test_repeated_fields_rejected(self, spec):
        """Regression: a repeated field silently overrode the first one."""
        with pytest.raises(ConfigurationError, match="duplicate cache parameter 'rows'"):
            parse_cache_spec(spec)
