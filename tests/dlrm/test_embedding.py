"""Tests for embedding tables and the SparseLengthsSum operator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import EmbeddingTableConfig
from repro.dlrm.embedding import (
    DenseEmbeddingTable,
    EmbeddingBagCollection,
    VirtualEmbeddingTable,
    sparse_lengths_sum,
)
from repro.dlrm.reference import reference_sparse_lengths_sum
from repro.workloads import UniformTrace, model_batch, table_trace
from repro.errors import ModelShapeError, TraceError


class TestDenseEmbeddingTable:
    def test_rows_returns_requested_vectors(self):
        weights = np.arange(12, dtype=np.float32).reshape(4, 3)
        table = DenseEmbeddingTable(weights)
        np.testing.assert_array_equal(table.rows(np.array([2, 0])), weights[[2, 0]])

    def test_random_factory_shapes(self):
        table = DenseEmbeddingTable.random(10, 8, rng=np.random.default_rng(0))
        assert table.num_rows == 10
        assert table.embedding_dim == 8
        assert table.table_bytes == 10 * 8 * 4

    def test_rejects_1d_weights(self):
        with pytest.raises(ModelShapeError):
            DenseEmbeddingTable(np.zeros(10, dtype=np.float32))

    def test_rejects_out_of_range_indices(self):
        table = DenseEmbeddingTable.random(4, 4)
        with pytest.raises(TraceError):
            table.rows(np.array([4]))


class TestVirtualEmbeddingTable:
    def test_deterministic_rows(self):
        table = VirtualEmbeddingTable(num_rows=10_000, embedding_dim=32, seed=3)
        first = table.rows(np.array([42, 7, 42]))
        second = table.rows(np.array([42, 7, 42]))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first[0], first[2])
        assert not np.array_equal(first[0], first[1])

    def test_rows_bounded_by_scale(self):
        table = VirtualEmbeddingTable(num_rows=100, embedding_dim=16, seed=0, scale=0.1)
        rows = table.rows(np.arange(100))
        assert np.all(np.abs(rows) <= 0.1 + 1e-6)

    def test_different_seeds_give_different_tables(self):
        a = VirtualEmbeddingTable(num_rows=100, embedding_dim=8, seed=1)
        b = VirtualEmbeddingTable(num_rows=100, embedding_dim=8, seed=2)
        assert not np.allclose(a.rows(np.arange(10)), b.rows(np.arange(10)))

    def test_logical_footprint_without_allocation(self):
        # A paper-scale table (3.2 GB / 50 tables) is representable with O(1) memory.
        table = VirtualEmbeddingTable(num_rows=500_000, embedding_dim=32)
        assert table.table_bytes == 500_000 * 128
        assert table.rows(np.array([499_999])).shape == (1, 32)

    def test_empty_lookup(self):
        table = VirtualEmbeddingTable(num_rows=10, embedding_dim=4)
        assert table.rows(np.array([], dtype=np.int64)).shape == (0, 4)


class TestSparseLengthsSum:
    def test_matches_manual_sum(self):
        weights = np.arange(20, dtype=np.float32).reshape(5, 4)
        table = DenseEmbeddingTable(weights)
        indices = np.array([0, 1, 4])
        offsets = np.array([0, 2, 3])
        result = sparse_lengths_sum(table, indices, offsets)
        np.testing.assert_allclose(result[0], weights[0] + weights[1])
        np.testing.assert_allclose(result[1], weights[4])

    def test_empty_segment_yields_zero(self):
        table = DenseEmbeddingTable.random(4, 4)
        result = sparse_lengths_sum(table, np.array([1]), np.array([0, 0, 1]))
        np.testing.assert_array_equal(result[0], np.zeros(4, dtype=np.float32))

    def test_empty_batch_of_lookups(self):
        table = DenseEmbeddingTable.random(4, 4)
        result = sparse_lengths_sum(table, np.array([], dtype=np.int64), np.array([0, 0]))
        assert result.shape == (1, 4)
        np.testing.assert_array_equal(result, 0)

    def test_rejects_bad_offsets(self):
        table = DenseEmbeddingTable.random(4, 4)
        with pytest.raises(TraceError):
            sparse_lengths_sum(table, np.array([0]), np.array([1, 1]))

    def test_matches_reference_on_virtual_table(self):
        table = VirtualEmbeddingTable(num_rows=200, embedding_dim=32, seed=5)
        rng = np.random.default_rng(8)
        table_config = EmbeddingTableConfig(num_rows=200, gathers=6)
        trace = table_trace(UniformTrace(), rng, table_config, 5)
        fast = sparse_lengths_sum(table, trace.indices, trace.offsets)
        reference = reference_sparse_lengths_sum(table, trace.indices, trace.offsets)
        np.testing.assert_allclose(fast, reference, rtol=1e-5, atol=1e-6)

    @given(
        batch=st.integers(min_value=1, max_value=8),
        gathers=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_reference(self, batch, gathers, seed):
        table = VirtualEmbeddingTable(num_rows=64, embedding_dim=8, seed=seed)
        rng = np.random.default_rng(seed)
        table_config = EmbeddingTableConfig(num_rows=64, embedding_dim=8, gathers=gathers)
        trace = table_trace(UniformTrace(), rng, table_config, batch)
        fast = sparse_lengths_sum(table, trace.indices, trace.offsets)
        reference = reference_sparse_lengths_sum(table, trace.indices, trace.offsets)
        np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)

    def test_permutation_invariance_within_sample(self):
        """Reduction is a sum, so lookup order within a sample must not matter."""
        table = VirtualEmbeddingTable(num_rows=100, embedding_dim=16, seed=1)
        indices = np.array([3, 50, 7, 99])
        offsets = np.array([0, 4])
        forward = sparse_lengths_sum(table, indices, offsets)
        backward = sparse_lengths_sum(table, indices[::-1].copy(), offsets)
        np.testing.assert_allclose(forward, backward, rtol=1e-5, atol=1e-6)


class TestEmbeddingBagCollection:
    def test_from_configs_virtual_and_dense(self, tiny_config):
        virtual = EmbeddingBagCollection.from_configs(tiny_config.tables, storage="virtual")
        dense = EmbeddingBagCollection.from_configs(tiny_config.tables, storage="dense")
        assert virtual.num_tables == dense.num_tables == tiny_config.num_tables
        assert virtual.total_bytes == dense.total_bytes

    def test_rejects_unknown_storage(self, tiny_config):
        with pytest.raises(ModelShapeError):
            EmbeddingBagCollection.from_configs(tiny_config.tables, storage="disk")

    def test_forward_shape(self, tiny_config, trace_rng):
        collection = EmbeddingBagCollection.from_configs(tiny_config.tables)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 3)
        reduced = collection.forward(batch.sparse_traces)
        assert reduced.shape == (3, tiny_config.num_tables, tiny_config.embedding_dim)

    def test_forward_rejects_wrong_trace_count(self, tiny_config, trace_rng):
        collection = EmbeddingBagCollection.from_configs(tiny_config.tables)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 3)
        with pytest.raises(ModelShapeError):
            collection.forward(batch.sparse_traces[:-1])

    def test_forward_rejects_mismatched_batches(self, tiny_config, trace_rng):
        collection = EmbeddingBagCollection.from_configs(tiny_config.tables)
        batch_a = model_batch(UniformTrace(), trace_rng, tiny_config, 3)
        batch_b = model_batch(UniformTrace(), trace_rng, tiny_config, 4)
        mixed = batch_a.sparse_traces[:-1] + (batch_b.sparse_traces[-1],)
        with pytest.raises(ModelShapeError):
            collection.forward(mixed)

    def test_rejects_heterogeneous_dims(self):
        tables = [
            VirtualEmbeddingTable(num_rows=10, embedding_dim=8),
            VirtualEmbeddingTable(num_rows=10, embedding_dim=16),
        ]
        with pytest.raises(ModelShapeError):
            EmbeddingBagCollection(tables)

    def test_rejects_empty_collection(self):
        with pytest.raises(ModelShapeError):
            EmbeddingBagCollection([])
