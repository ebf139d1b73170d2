"""Tests for DLRM model configuration dataclasses."""

import pytest
from hypothesis import given, strategies as st

from repro.config.models import (
    DLRMConfig,
    EmbeddingTableConfig,
    MLPConfig,
    homogeneous_dlrm,
)
from repro.errors import ConfigurationError


class TestEmbeddingTableConfig:
    def test_row_and_table_bytes(self):
        table = EmbeddingTableConfig(num_rows=1000, embedding_dim=32)
        assert table.row_bytes == 128
        assert table.table_bytes == 128_000

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            EmbeddingTableConfig(num_rows=0)
        with pytest.raises(ConfigurationError):
            EmbeddingTableConfig(num_rows=10, embedding_dim=0)
        with pytest.raises(ConfigurationError):
            EmbeddingTableConfig(num_rows=10, gathers=0)


class TestMLPConfig:
    def test_parameter_count_includes_biases(self):
        mlp = MLPConfig(layer_dims=(4, 8, 2))
        assert mlp.num_parameters == 4 * 8 + 8 + 8 * 2 + 2

    def test_flops_per_sample(self):
        mlp = MLPConfig(layer_dims=(4, 8, 2))
        assert mlp.flops_per_sample() == 2 * (4 * 8 + 8 * 2)

    def test_needs_at_least_two_dims(self):
        with pytest.raises(ConfigurationError):
            MLPConfig(layer_dims=(4,))

    def test_with_output_dim(self):
        mlp = MLPConfig(layer_dims=(4, 8, 2)).with_output_dim(5)
        assert mlp.layer_dims == (4, 8, 5)

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=6))
    def test_parameter_bytes_is_4x_count(self, dims):
        mlp = MLPConfig(layer_dims=tuple(dims))
        assert mlp.parameter_bytes == 4 * mlp.num_parameters


class TestDLRMConfig:
    def test_homogeneous_builder_produces_consistent_shapes(self):
        config = homogeneous_dlrm("m", num_tables=5, rows_per_table=100, gathers_per_table=3)
        assert config.num_tables == 5
        assert config.gathers_per_table == 3
        assert config.bottom_mlp.output_dim == config.embedding_dim
        assert config.top_mlp.input_dim == config.interaction_output_dim

    def test_interaction_dimensions(self):
        config = homogeneous_dlrm("m", num_tables=5, rows_per_table=100, gathers_per_table=3)
        assert config.num_interaction_vectors == 6
        assert config.num_interaction_pairs == 15
        assert config.interaction_output_dim == 15 + 32

    def test_embedding_bytes_per_sample(self):
        config = homogeneous_dlrm("m", num_tables=2, rows_per_table=100, gathers_per_table=4)
        assert config.embedding_bytes_per_sample() == 2 * 4 * 32 * 4

    def test_reduction_flops(self):
        config = homogeneous_dlrm("m", num_tables=2, rows_per_table=100, gathers_per_table=4)
        assert config.reduction_flops_per_sample() == 2 * 3 * 32

    def test_total_dense_flops_positive(self):
        config = homogeneous_dlrm("m", num_tables=2, rows_per_table=100, gathers_per_table=4)
        assert config.total_dense_flops_per_sample() > 0

    def test_with_gathers_per_table(self):
        config = homogeneous_dlrm("m", num_tables=2, rows_per_table=100, gathers_per_table=4)
        modified = config.with_gathers_per_table(9)
        assert modified.gathers_per_table == 9
        assert config.gathers_per_table == 4

    def test_rejects_mismatched_bottom_mlp(self):
        table = EmbeddingTableConfig(num_rows=10, embedding_dim=32)
        with pytest.raises(ConfigurationError):
            DLRMConfig(
                name="bad",
                tables=(table,),
                bottom_mlp=MLPConfig(layer_dims=(13, 16)),  # output != 32
                top_mlp=MLPConfig(layer_dims=(33, 1)),
            )

    def test_rejects_mismatched_top_mlp(self):
        table = EmbeddingTableConfig(num_rows=10, embedding_dim=32)
        with pytest.raises(ConfigurationError):
            DLRMConfig(
                name="bad",
                tables=(table,),
                bottom_mlp=MLPConfig(layer_dims=(13, 32)),
                top_mlp=MLPConfig(layer_dims=(10, 1)),  # input != interaction dim
            )

    def test_rejects_heterogeneous_embedding_dims(self):
        tables = (
            EmbeddingTableConfig(num_rows=10, embedding_dim=32),
            EmbeddingTableConfig(num_rows=10, embedding_dim=64),
        )
        with pytest.raises(ConfigurationError):
            DLRMConfig(
                name="bad",
                tables=tables,
                bottom_mlp=MLPConfig(layer_dims=(13, 32)),
                top_mlp=MLPConfig(layer_dims=(35, 1)),
            )

    def test_summary_mentions_name_and_tables(self):
        config = homogeneous_dlrm("MyModel", num_tables=3, rows_per_table=50, gathers_per_table=2)
        summary = config.summary()
        assert "MyModel" in summary and "3 tables" in summary

    @given(
        num_tables=st.integers(min_value=1, max_value=12),
        gathers=st.integers(min_value=1, max_value=40),
        batchless_dim=st.sampled_from([16, 32, 64]),
    )
    def test_interaction_pair_formula(self, num_tables, gathers, batchless_dim):
        config = homogeneous_dlrm(
            "prop",
            num_tables=num_tables,
            rows_per_table=64,
            gathers_per_table=gathers,
            embedding_dim=batchless_dim,
        )
        n = num_tables + 1
        assert config.num_interaction_pairs == n * (n - 1) // 2
        assert config.total_gathers_per_sample == num_tables * gathers


def _widened(model, num_tables):
    """``model`` with ``num_tables`` copies of its first table and a top MLP
    whose input layer fits the wider interaction output."""
    from dataclasses import replace

    n = num_tables + 1
    top = (n * (n - 1) // 2 + model.embedding_dim,) + model.top_mlp.layer_dims[1:]
    return replace(
        model, tables=(model.tables[0],) * num_tables, top_mlp=MLPConfig(layer_dims=top)
    )


def _variants():
    from repro.config import PAPER_MODELS

    for model in PAPER_MODELS:
        yield model
        yield _widened(model, 7)
        yield model.with_gathers_per_table(3)


class TestCachedAggregates:
    """The per-instance cached aggregates equal the plain recomputed sums."""

    @pytest.mark.parametrize(
        "model",
        list(_variants()),
        ids=lambda m: f"{m.name}-{m.num_tables}x{m.tables[0].gathers}",
    )
    def test_cached_values_equal_the_recomputed_sums(self, model):
        tables = model.tables
        expected = {
            "total_gathers_per_sample": sum(t.gathers for t in tables),
            "embedding_table_bytes": sum(t.num_rows * t.embedding_dim * 4 for t in tables),
            "largest_table_bytes": max(t.num_rows * t.embedding_dim * 4 for t in tables),
        }
        for _ in range(2):  # the cold computation, then the memoized value
            for name, value in expected.items():
                assert getattr(model, name) == value, name
        for table in tables:
            assert table.row_bytes == table.embedding_dim * 4
            assert table.table_bytes == table.num_rows * table.embedding_dim * 4
        for mlp in (model.bottom_mlp, model.top_mlp):
            dims = mlp.layer_dims
            assert mlp.num_parameters == sum(
                i * o + o for i, o in zip(dims[:-1], dims[1:])
            )

    def test_table_runs_merge_only_adjacent_equal_tables(self):
        from dataclasses import replace

        a = EmbeddingTableConfig(num_rows=100)
        b = EmbeddingTableConfig(num_rows=200)
        c = EmbeddingTableConfig(num_rows=100, gathers=3)
        base = homogeneous_dlrm("runs", num_tables=7, rows_per_table=1, gathers_per_table=1)
        model = replace(base, tables=(a, a, b, a, c, c, EmbeddingTableConfig(num_rows=100)))
        assert model.table_runs == ((2, a), (1, b), (1, a), (2, c), (1, a))
        assert homogeneous_dlrm("one", 50, 10, 2).table_runs == (
            (50, EmbeddingTableConfig(num_rows=10, gathers=2)),
        )

    def test_variants_do_not_inherit_the_originals_aggregates(self):
        from repro.config import DLRM1

        DLRM1.total_gathers_per_sample  # warm the original's memo
        wider = _widened(DLRM1, DLRM1.num_tables + 5)
        assert wider.total_gathers_per_sample == DLRM1.total_gathers_per_sample + 5 * (
            DLRM1.tables[0].gathers
        )
        heavier = DLRM1.with_gathers_per_table(DLRM1.tables[0].gathers + 1)
        assert heavier.total_gathers_per_sample == (
            DLRM1.total_gathers_per_sample + DLRM1.num_tables
        )

    def test_cached_aggregates_are_not_fields(self):
        from dataclasses import asdict, fields

        from repro.config import DLRM1

        DLRM1.embedding_table_bytes
        assert "embedding_table_bytes" not in {f.name for f in fields(DLRM1)}
        assert "embedding_table_bytes" not in asdict(DLRM1)
