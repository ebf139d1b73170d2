"""The batch-fused shard fan-out is identical to per-table fan-out.

``ShardedReplicaServer._route_batch`` draws every table, hashes the whole
batch once and probes each shard's cache once per batch, grouping rows by
owner with one ``bincount`` + stable ``argsort`` + ``cumsum`` slicing pass.
These tests pin it to scalar references: the grouping must hand every shard
*exactly* the rows the masking loop produced, in the same order (caches are
reference-stream sensitive); the failover remap must equal its scalar
definition element by element; and a whole priced batch must match the
per-(table, shard) loop driving tuple-keyed reference caches.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core.link import ChipletLink
from repro.serving.batching import default_batching
from repro.serving.replica import ServiceModel
from repro.serving.sharded import ShardedReplicaServer
from repro.sharding import EmbeddingCache, make_plan
from repro.sim.engine import Simulator
from repro.workloads.traces import ZipfianTrace
from tests.sharding.reference_cache import TupleKeyCache


def scalar_group(owners, rows, num_shards):
    """The pre-vectorization reference: boolean mask per shard."""
    return {
        shard: rows[owners == shard]
        for shard in range(num_shards)
        if np.count_nonzero(owners == shard)
    }


def vectorized_group(owners, rows, num_shards):
    """The production grouping: bincount + stable argsort + cumsum slices."""
    counts = np.bincount(owners, minlength=num_shards)
    order = np.argsort(owners, kind="stable")
    sorted_rows = rows[order]
    ends = np.cumsum(counts)
    return {
        int(shard): sorted_rows[ends[shard] - counts[shard] : ends[shard]]
        for shard in np.nonzero(counts)[0]
    }


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("num_shards", [2, 3, 8])
def test_grouping_matches_the_scalar_reference_elementwise(seed, num_shards):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 4_000))
    owners = rng.integers(0, num_shards, size=size)
    rows = rng.integers(0, 1_000_000, size=size)
    scalar = scalar_group(owners, rows, num_shards)
    vector = vectorized_group(owners, rows, num_shards)
    assert scalar.keys() == vector.keys()
    for shard, expected in scalar.items():
        np.testing.assert_array_equal(vector[shard], expected)


def test_counts_match_the_scalar_tally():
    rng = np.random.default_rng(3)
    owners = rng.integers(0, 5, size=2_500)
    counts = np.bincount(owners, minlength=5)
    for shard in range(5):
        assert counts[shard] == int(np.count_nonzero(owners == shard))
    # contributed_tables increments exactly where the scalar loop found work
    np.testing.assert_array_equal(
        counts > 0, [bool(np.count_nonzero(owners == s)) for s in range(5)]
    )


def test_empty_shard_gets_no_slice():
    owners = np.array([1, 1, 3, 3, 3])
    rows = np.array([10, 20, 30, 40, 50])
    vector = vectorized_group(owners, rows, 4)
    assert set(vector) == {1, 3}
    np.testing.assert_array_equal(vector[1], [10, 20])
    np.testing.assert_array_equal(vector[3], [30, 40, 50])


class _FakePlan:
    def __init__(self, num_shards):
        self.num_shards = num_shards


def make_server(num_shards, lost):
    """A bare server exposing only the remap state (no sim machinery)."""
    server = object.__new__(ShardedReplicaServer)
    server.plan = _FakePlan(num_shards)
    server._lost_shards = dict(lost)
    server.degraded_lookups = 0
    server.promoted_lookups = 0
    return server


class TestFailoverRemap:
    def test_promote_moves_the_whole_slice_to_the_next_survivor(self):
        server = make_server(4, {1: "promote"})
        owners = np.array([0, 1, 2, 1, 3, 1])
        rows = np.arange(6)
        remapped = server._remap_owners(owners, rows)
        np.testing.assert_array_equal(remapped, [0, 2, 2, 2, 3, 2])
        assert server.promoted_lookups == 3
        assert server.degraded_lookups == 0

    def test_promote_wraps_past_the_last_shard(self):
        server = make_server(3, {2: "promote"})
        owners = np.array([2, 2, 0])
        remapped = server._remap_owners(owners, np.arange(3))
        np.testing.assert_array_equal(remapped, [0, 0, 0])

    def test_rehash_matches_the_scalar_definition(self):
        server = make_server(4, {2: "rehash"})
        rng = np.random.default_rng(7)
        owners = rng.integers(0, 4, size=1_000)
        rows = rng.integers(0, 100_000, size=1_000)
        remapped = server._remap_owners(owners, rows)
        survivors = np.array([0, 1, 3])
        for i in range(1_000):
            if owners[i] == 2:
                assert remapped[i] == survivors[rows[i] % 3]
            else:
                assert remapped[i] == owners[i]
        assert server.degraded_lookups == int(np.count_nonzero(owners == 2))

    def test_remap_leaves_the_input_untouched(self):
        server = make_server(4, {0: "promote"})
        owners = np.array([0, 1, 0])
        original = owners.copy()
        server._remap_owners(owners, np.arange(3))
        np.testing.assert_array_equal(owners, original)

    def test_two_lost_shards_compose(self):
        server = make_server(4, {0: "promote", 2: "rehash"})
        owners = np.array([0, 1, 2, 3])
        rows = np.array([5, 6, 7, 8])
        remapped = server._remap_owners(owners, rows)
        survivors = np.array([1, 3])
        assert remapped[0] == 1  # next survivor after 0
        assert remapped[1] == 1
        assert remapped[2] == survivors[7 % 2]
        assert remapped[3] == 3


# ----------------------------------------------------------------------
# Whole batches: fused routing vs the per-(table, shard) reference.
# ----------------------------------------------------------------------
FANOUT_MODEL = homogeneous_dlrm(
    name="fanout",
    num_tables=6,
    rows_per_table=3_000,
    gathers_per_table=4,
    embedding_dim=32,
)
BATCH_SIZES = (1, 9, 32, 4, 64, 17)


class ProbeLog:
    """A cache tier that records every ``(table, row)`` probe, in order."""

    def __init__(self, cache):
        self.cache = cache
        self.probes = []

    def lookup(self, table_index, rows):
        rows = np.asarray(rows, dtype=np.int64)
        tables = np.broadcast_to(np.asarray(table_index, dtype=np.int64), rows.shape)
        self.probes.extend(zip(tables.tolist(), rows.tolist()))
        return self.cache.lookup(table_index, rows)

    @property
    def stats(self):
        return self.cache.stats


class PerTableServer(ShardedReplicaServer):
    """Reference routing: one ``owner_of`` per table, one probe per
    (table, shard), local tier before the shared tier."""

    def _route_batch(self, batch_size, model):
        num_shards = self.plan.num_shards
        owned = np.zeros(num_shards, dtype=np.int64)
        gathered = np.zeros(num_shards, dtype=np.int64)
        contributed = np.zeros(num_shards, dtype=np.int64)
        shared_lines = np.zeros(num_shards, dtype=np.int64)
        for table_index, table in enumerate(model.tables):
            count = batch_size * table.gathers
            rows = self.trace_model.draw(
                self.trace_rng, table.num_rows, count, table_index
            )
            owners = self.plan.owner_of(table_index, rows)
            if self._lost_shards:
                owners = self._remap_owners(owners, rows)
            for shard in range(num_shards):
                shard_rows = rows[owners == shard]
                if not shard_rows.size:
                    continue
                owned[shard] += shard_rows.size
                contributed[shard] += 1
                if self.caches is not None:
                    hits = self.caches[shard].lookup(table_index, shard_rows)
                    shard_rows = shard_rows[~hits]
                if self.shared_cache is not None and shard_rows.size:
                    absorbed = int(self.shared_cache.lookup(table_index, shard_rows).sum())
                    shared_lines[shard] += absorbed
                    gathered[shard] -= absorbed
                gathered[shard] += shard_rows.size
        return owned, gathered, contributed, shared_lines


def build_server(server_cls, cache_cls, strategy, policy, shared_policy, lost):
    caches = None
    if policy is not None:
        caches = [cache_cls(48, policy) for _ in range(4)]
    shared = ProbeLog(cache_cls(96, shared_policy)) if shared_policy else None
    server = server_cls(
        Simulator(),
        ServiceModel(get_backend("centaur", HARPV2_SYSTEM), FANOUT_MODEL, {}),
        default_batching(),
        plan=make_plan(FANOUT_MODEL, 4, strategy),
        link=ChipletLink(HARPV2_SYSTEM.link),
        trace_model=ZipfianTrace(alpha=1.05),
        trace_rng=np.random.default_rng(11),
        caches=caches,
        shared_cache=shared,
    )
    for shard, failover in lost:
        server.lose_shard(shard, failover)
    return server


def accounting_of(server):
    accounting = server.accounting
    return {
        "owned": accounting.owned.tolist(),
        "gathered": accounting.gathered.tolist(),
        "cross_shard_bytes": accounting.cross_shard_bytes,
        "cross_shard_transfer_s": accounting.cross_shard_transfer_s,
        "gather_s_total": accounting.gather_s_total,
        "shared_hits": accounting.shared_hits,
        "shared_transfer_s": accounting.shared_transfer_s,
        "promoted": server.promoted_lookups,
        "degraded": server.degraded_lookups,
    }


@pytest.mark.parametrize("strategy", ["row", "table", "greedy"])
@pytest.mark.parametrize(
    "lost",
    [(), ((1, "promote"),), ((2, "rehash"),), ((0, "rehash"), (3, "promote"))],
    ids=["healthy", "promote", "rehash", "two-lost"],
)
@pytest.mark.parametrize(
    "policy, shared_policy",
    [(None, None), ("lru", None), ("lfu", "lru"), (None, "lfu")],
    ids=["cache-off", "lru", "lfu+shared", "shared-only"],
)
def test_fused_batches_match_the_per_table_reference(
    strategy, lost, policy, shared_policy
):
    fused = build_server(
        ShardedReplicaServer, EmbeddingCache, strategy, policy, shared_policy, lost
    )
    reference = build_server(
        PerTableServer, TupleKeyCache, strategy, policy, shared_policy, lost
    )
    for batch_size in BATCH_SIZES:
        results = [
            server._priced_sharded(
                server.service.result(batch_size), batch_size, FANOUT_MODEL
            )
            for server in (fused, reference)
        ]
        assert results[0].breakdown.stages == results[1].breakdown.stages
        assert accounting_of(fused) == accounting_of(reference)
    if lost:
        assert fused.promoted_lookups + fused.degraded_lookups > 0
    if policy is not None:
        for mine, theirs in zip(fused.caches, reference.caches):
            assert mine.stats == theirs.stats
            assert mine.evictions == theirs.evictions
        assert sum(cache.stats.hits for cache in fused.caches) > 0
    if shared_policy is not None:
        assert fused.shared_cache.probes == reference.shared_cache.probes
        assert fused.shared_cache.stats == reference.shared_cache.stats
        assert fused.accounting.shared_hits > 0
