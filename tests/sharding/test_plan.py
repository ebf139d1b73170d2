"""Unit tests for sharding plans and placement strategies."""

import re

import numpy as np
import pytest

from repro.config.models import DLRMConfig, EmbeddingTableConfig, MLPConfig, homogeneous_dlrm
from repro.errors import ConfigurationError
from repro.sharding import (
    GreedyBalancedSharding,
    RowWiseHashSharding,
    ShardingPlan,
    make_plan,
    parse_sharding_spec,
)


@pytest.fixture(scope="module")
def model():
    return homogeneous_dlrm(
        name="plan-test",
        num_tables=6,
        rows_per_table=2_000,
        gathers_per_table=4,
        embedding_dim=16,
    )


def lopsided_model():
    """Tables of very different sizes, to separate greedy from round-robin."""
    tables = tuple(
        EmbeddingTableConfig(num_rows=rows, embedding_dim=16, gathers=2)
        for rows in (50_000, 1_000, 1_000, 1_000, 1_000, 1_000)
    )
    interaction_dim = 16 + (len(tables) + 1) * len(tables) // 2
    return DLRMConfig(
        name="lopsided",
        tables=tables,
        num_dense_features=13,
        bottom_mlp=MLPConfig(layer_dims=(13, 16)),
        top_mlp=MLPConfig(layer_dims=(interaction_dim, 1)),
    )


class TestTableWise:
    def test_round_robin_assignment(self, model):
        plan = make_plan(model, 3, "table")
        assert plan.table_owner == (0, 1, 2, 0, 1, 2)
        assert plan.strategy == "table"
        assert not plan.row_wise

    def test_owner_of_broadcasts_the_table_owner(self, model):
        plan = make_plan(model, 3, "table")
        rows = np.array([0, 17, 1_999])
        assert plan.owner_of(4, rows).tolist() == [1, 1, 1]

    def test_uniform_tables_balance_perfectly(self, model):
        plan = make_plan(model, 3, "table")
        assert plan.imbalance == pytest.approx(1.0)


class TestRowWise:
    def test_every_row_owned_by_exactly_one_shard(self, model):
        plan = make_plan(model, 4, "row")
        rows = np.arange(model.tables[0].num_rows)
        owners = plan.owner_of(0, rows)
        assert owners.min() >= 0 and owners.max() < 4
        # Re-asking gives the same answer: ownership is a pure function.
        assert np.array_equal(owners, plan.owner_of(0, rows))

    def test_rows_spread_over_all_shards(self, model):
        plan = make_plan(model, 4, "row")
        owners = plan.owner_of(0, np.arange(2_000))
        counts = np.bincount(owners, minlength=4)
        assert (counts > 0).all()
        # Hashing balances to within a few percent at this scale.
        assert counts.max() / counts.mean() < 1.2

    def test_tables_hash_independently(self, model):
        plan = make_plan(model, 4, "row")
        rows = np.arange(500)
        assert not np.array_equal(plan.owner_of(0, rows), plan.owner_of(1, rows))

    def test_hash_seed_changes_placement(self, model):
        rows = np.arange(500)
        base = RowWiseHashSharding(hash_seed=0).build(model, 4)
        other = RowWiseHashSharding(hash_seed=7).build(model, 4)
        assert not np.array_equal(base.owner_of(0, rows), other.owner_of(0, rows))

    def test_shard_bytes_are_exact(self, model):
        plan = make_plan(model, 4, "row")
        assert sum(plan.shard_bytes) == pytest.approx(model.embedding_table_bytes)

    def test_placement_is_pinned(self, model):
        """The hash is part of every sharded artifact; it must never drift."""
        plan = make_plan(model, 4, "row")
        assert plan.owner_of(0, np.arange(12)).tolist() == [3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1]
        assert plan.owner_of(5, np.arange(12)).tolist() == [2, 0, 3, 3, 1, 0, 0, 1, 0, 2, 2, 2]
        seeded = RowWiseHashSharding(hash_seed=7).build(model, 3)
        rows = np.array([0, 1, 1_999, 1_234, 77])
        assert seeded.owner_of(2, rows).tolist() == [0, 0, 0, 0, 2]
        assert plan.shard_bytes == (199552.0, 189184.0, 189632.0, 189632.0)
        assert seeded.shard_bytes == (258880.0, 256064.0, 253056.0)


class TestPerRowTables:
    """``owner_of`` with one table per row equals per-table calls."""

    @pytest.mark.parametrize("strategy", ["row", "table", "greedy"])
    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_table_array_matches_per_table_calls(self, model, strategy, num_shards):
        plan = make_plan(model, num_shards, strategy)
        rng = np.random.default_rng(num_shards)
        tables = rng.integers(0, model.num_tables, size=3_000)
        rows = rng.integers(0, 2_000, size=tables.size)
        expected = np.empty_like(rows)
        for table_index in range(model.num_tables):
            mask = tables == table_index
            expected[mask] = plan.owner_of(table_index, rows[mask])
        np.testing.assert_array_equal(plan.owner_of(tables, rows), expected)

    @pytest.mark.parametrize("strategy", ["row", "table"])
    def test_out_buffer_receives_the_owners(self, model, strategy):
        plan = make_plan(model, 4, strategy)
        rows = np.arange(500)
        out = np.full(rows.size, -1, dtype=np.int64)
        assert plan.owner_of(3, rows, out=out) is out
        np.testing.assert_array_equal(out, plan.owner_of(3, rows))

    @pytest.mark.parametrize("strategy", ["row", "table"])
    @pytest.mark.parametrize("tables", [[1], [0, 1], [[0, 1, 2]]])
    def test_misaligned_table_array_rejected(self, model, strategy, tables):
        plan = make_plan(model, 4, strategy)
        tables = np.asarray(tables)
        with pytest.raises(ConfigurationError, match=re.escape(f"{tables.shape}")):
            plan.owner_of(tables, np.arange(3))

    @pytest.mark.parametrize("strategy", ["row", "table"])
    def test_scalar_table_broadcasts_over_rows(self, model, strategy):
        plan = make_plan(model, 4, strategy)
        expected = plan.owner_of(2, np.arange(3))
        np.testing.assert_array_equal(plan.owner_of(np.array(2), np.arange(3)), expected)
        np.testing.assert_array_equal(plan.owner_of(np.int64(2), np.arange(3)), expected)

    def test_out_of_range_table_in_an_array_rejected(self, model):
        plan = make_plan(model, 4, "row")
        with pytest.raises(ConfigurationError, match="table index 6"):
            plan.owner_of(np.array([0, 6, 1]), np.arange(3))
        with pytest.raises(ConfigurationError, match="table index -1"):
            plan.owner_of(np.array([-1]), np.arange(1))


class TestGreedy:
    def test_greedy_beats_round_robin_on_lopsided_tables(self):
        model = lopsided_model()
        greedy = make_plan(model, 2, "greedy")
        table_wise = make_plan(model, 2, "table")
        assert greedy.imbalance < table_wise.imbalance
        # The huge table sits alone; the five small ones share a shard.
        huge_owner = greedy.table_owner[0]
        assert all(owner != huge_owner for owner in greedy.table_owner[1:])

    def test_deterministic_placement(self, model):
        first = GreedyBalancedSharding().build(model, 3)
        second = GreedyBalancedSharding().build(model, 3)
        assert first.table_owner == second.table_owner


class TestCapacity:
    def test_overflowing_capacity_rejected(self):
        model = lopsided_model()
        heaviest = max(make_plan(model, 2, "greedy").shard_bytes)
        with pytest.raises(ConfigurationError):
            make_plan(model, 2, "greedy", capacity_bytes=heaviest - 1)

    def test_sufficient_capacity_accepted(self):
        model = lopsided_model()
        heaviest = max(make_plan(model, 2, "greedy").shard_bytes)
        plan = make_plan(model, 2, "greedy", capacity_bytes=heaviest)
        assert plan.capacity_bytes == heaviest

    def test_row_wise_capacity_checked_exactly(self, model):
        heaviest = max(make_plan(model, 4, "row").shard_bytes)
        with pytest.raises(ConfigurationError):
            make_plan(model, 4, "row", capacity_bytes=heaviest / 2)


class TestValidation:
    def test_zero_shards_rejected(self, model):
        with pytest.raises(ConfigurationError):
            make_plan(model, 0, "table")

    def test_unknown_strategy_rejected(self, model):
        with pytest.raises(ConfigurationError):
            make_plan(model, 2, "mystery")

    def test_wrong_owner_count_rejected(self, model):
        with pytest.raises(ConfigurationError):
            ShardingPlan(model=model, num_shards=2, strategy="manual", table_owner=(0, 1))

    def test_out_of_range_owner_rejected(self, model):
        with pytest.raises(ConfigurationError):
            ShardingPlan(
                model=model,
                num_shards=2,
                strategy="manual",
                table_owner=(0, 1, 2, 0, 1, 0),
            )

    def test_out_of_range_table_rejected(self, model):
        plan = make_plan(model, 2, "table")
        with pytest.raises(ConfigurationError):
            plan.owner_of(model.num_tables, np.arange(4))

    def test_negative_hash_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RowWiseHashSharding(hash_seed=-1)

    def test_negative_hash_seed_rejected_at_plan_construction(self, model):
        # A directly-built plan must fail here, not with a numpy
        # OverflowError at the first owner_of() call mid-serve.
        with pytest.raises(ConfigurationError):
            ShardingPlan(model=model, num_shards=2, strategy="row", hash_seed=-1)

    def test_describe_mentions_strategy(self, model):
        assert "row" in make_plan(model, 2, "row").describe()


class TestSpecParsing:
    def test_count_only_defaults_to_table(self):
        assert parse_sharding_spec("4") == (4, "table")

    def test_count_and_strategy(self):
        assert parse_sharding_spec("8:row") == (8, "row")
        assert parse_sharding_spec("2:greedy") == (2, "greedy")

    @pytest.mark.parametrize("spec", ["", "x:row", "0:table", "4:mystery"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_sharding_spec(spec)
