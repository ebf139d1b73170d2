"""Tests for the stateless trace models (uniform / zipf / hot-cold / per-table)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import EmbeddingTableConfig, homogeneous_dlrm
from repro.errors import TraceError
from repro.workloads import (
    PerTableTrace,
    UniformTrace,
    WorkingSetTrace,
    ZipfianTrace,
    model_batch,
    table_trace,
)

TABLE = EmbeddingTableConfig(num_rows=10_000, embedding_dim=32, gathers=20)


def draws(model, count=20_000, num_rows=10_000, seed=0, table_index=None):
    return model.draw(np.random.default_rng(seed), num_rows, count, table_index)


class TestUniformTrace:
    def test_range_and_determinism(self):
        a = draws(UniformTrace(), seed=5)
        b = draws(UniformTrace(), seed=5)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 10_000

    def test_model_batch_is_seeded(self):
        config = homogeneous_dlrm(
            "wl-uniform", num_tables=3, rows_per_table=5_000, gathers_per_table=8
        )
        batch_a = model_batch(UniformTrace(), np.random.default_rng(5), config, 8)
        batch_b = model_batch(UniformTrace(), np.random.default_rng(5), config, 8)
        for trace_a, trace_b in zip(batch_a.sparse_traces, batch_b.sparse_traces):
            np.testing.assert_array_equal(trace_a.indices, trace_b.indices)
        np.testing.assert_array_equal(batch_a.dense_features, batch_b.dense_features)
        batch_c = model_batch(UniformTrace(), np.random.default_rng(6), config, 8)
        assert not np.array_equal(
            batch_a.sparse_traces[0].indices, batch_c.sparse_traces[0].indices
        )

    def test_roughly_uniform(self):
        indices = draws(UniformTrace(), count=100_000)
        hot_share = np.mean(indices < 1_000)
        assert hot_share == pytest.approx(0.1, abs=0.02)


class TestZipfianTrace:
    def test_skew_concentrates_traffic(self):
        zipf = ZipfianTrace(alpha=1.2)
        indices = draws(zipf, count=50_000)
        _, counts = np.unique(indices, return_counts=True)
        top_share = np.sort(counts)[::-1][:100].sum() / len(indices)
        assert top_share > 0.4  # top-100 rows take a large share

    def test_touches_fewer_rows_than_uniform(self):
        table = EmbeddingTableConfig(num_rows=10_000, gathers=50)
        uniform = table_trace(UniformTrace(), np.random.default_rng(11), table, 64)
        zipfian = table_trace(ZipfianTrace(alpha=1.2), np.random.default_rng(11), table, 64)
        assert zipfian.unique_rows() < uniform.unique_rows() * 0.7

    def test_indices_in_range(self):
        table = EmbeddingTableConfig(num_rows=500, gathers=20)
        trace = table_trace(ZipfianTrace(alpha=1.05), np.random.default_rng(2), table, 16)
        assert trace.indices.min() >= 0
        assert trace.indices.max() < 500

    def test_alpha_zero_rejected(self):
        with pytest.raises(TraceError):
            ZipfianTrace(alpha=0.0)

    def test_scatter_is_stable_across_stream_seeds(self):
        """Hot-row placement is part of the model, not the stream seed."""
        zipf = ZipfianTrace(alpha=1.4)
        a = draws(zipf, count=50_000, seed=1)
        b = draws(zipf, count=50_000, seed=2)
        hot_a = np.bincount(a, minlength=10_000).argmax()
        hot_b = np.bincount(b, minlength=10_000).argmax()
        assert hot_a == hot_b


class TestWorkingSetTrace:
    def test_hot_set_takes_hot_weight(self):
        model = WorkingSetTrace(hot_fraction=0.05, hot_weight=0.9)
        indices = draws(model, count=100_000)
        counts = np.bincount(indices, minlength=10_000)
        hot_rows = np.sort(counts)[::-1][:500]  # 5% of 10k rows
        assert hot_rows.sum() / counts.sum() == pytest.approx(0.9, abs=0.02)

    def test_validation(self):
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_fraction=0.0)
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_fraction=1.0)
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_weight=1.5)

    def test_describe(self):
        assert "5%" in WorkingSetTrace(hot_fraction=0.05).describe()


class TestPerTableTrace:
    def test_override_dispatch(self):
        per_table = PerTableTrace(
            default=UniformTrace(), overrides={1: WorkingSetTrace(0.01, 0.99)}
        )
        uniform = draws(per_table, count=50_000, table_index=0)
        skewed = draws(per_table, count=50_000, table_index=1)
        top_uniform = np.sort(np.bincount(uniform, minlength=10_000))[::-1][:100].sum()
        top_skewed = np.sort(np.bincount(skewed, minlength=10_000))[::-1][:100].sum()
        assert top_skewed > 5 * top_uniform

    def test_validation(self):
        with pytest.raises(TraceError):
            PerTableTrace(default="nope", overrides={})
        with pytest.raises(TraceError):
            PerTableTrace(default=UniformTrace(), overrides={-1: UniformTrace()})
        with pytest.raises(TraceError):
            PerTableTrace(default=UniformTrace(), overrides={0: "nope"})

    def test_describe_names_overrides(self):
        per_table = PerTableTrace(UniformTrace(), {2: ZipfianTrace(alpha=2.0)})
        text = per_table.describe()
        assert "table 2" in text and "zipf" in text


class TestTraceHelpers:
    def test_table_trace_shape(self):
        trace = table_trace(UniformTrace(), np.random.default_rng(0), TABLE, batch_size=8)
        assert trace.batch_size == 8
        assert trace.total_lookups == 8 * TABLE.gathers
        assert trace.num_rows == TABLE.num_rows

    def test_table_trace_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TraceError):
            table_trace(UniformTrace(), rng, TABLE, batch_size=0)
        with pytest.raises(TraceError):
            table_trace(UniformTrace(), rng, TABLE, batch_size=4, lookups_per_sample=-1)

    def test_model_batch_covers_all_tables(self):
        config = homogeneous_dlrm(
            "wl-test", num_tables=3, rows_per_table=1_000, gathers_per_table=4
        )
        batch = model_batch(UniformTrace(), np.random.default_rng(1), config, batch_size=6)
        assert batch.batch_size == 6
        assert batch.num_tables == 3

    def test_model_batch_is_one_seeded_stream(self):
        """Same seed, same batch; another seed or the next batch differs."""
        config = homogeneous_dlrm(
            "wl-stream", num_tables=2, rows_per_table=2_000, gathers_per_table=5
        )
        trace = WorkingSetTrace(0.05, 0.9)
        rng = np.random.default_rng(3)
        batch = model_batch(trace, rng, config, batch_size=4)
        assert batch.total_lookups == 4 * 5 * 2
        again = model_batch(trace, np.random.default_rng(3), config, batch_size=4)
        assert np.array_equal(batch.sparse_traces[0].indices, again.sparse_traces[0].indices)
        np.testing.assert_array_equal(batch.dense_features, again.dense_features)
        following = model_batch(trace, rng, config, batch_size=4)
        other_seed = model_batch(trace, np.random.default_rng(4), config, batch_size=4)
        for differing in (following, other_seed):
            assert not np.array_equal(
                batch.sparse_traces[0].indices, differing.sparse_traces[0].indices
            )

    def test_lookup_override(self):
        table = EmbeddingTableConfig(num_rows=50, gathers=7)
        rng = np.random.default_rng(0)
        trace = table_trace(UniformTrace(), rng, table, 3, lookups_per_sample=2)
        assert trace.total_lookups == 6
        assert trace.batch_size == 3

    def test_zero_lookup_override(self):
        table = EmbeddingTableConfig(num_rows=50, gathers=7)
        rng = np.random.default_rng(0)
        trace = table_trace(UniformTrace(), rng, table, 3, lookups_per_sample=0)
        assert trace.total_lookups == 0
        assert trace.batch_size == 3

    @given(batch_size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_offsets_are_regular(self, batch_size):
        table = EmbeddingTableConfig(num_rows=1000, gathers=4)
        trace = table_trace(UniformTrace(), np.random.default_rng(3), table, batch_size)
        assert trace.batch_size == batch_size
        assert np.all(np.diff(trace.offsets) == 4)
        assert trace.indices.min() >= 0
        assert trace.indices.max() < 1000
