"""Workload (DLRM model) configuration dataclasses.

A :class:`DLRMConfig` fully describes one personalized-recommendation model
in the style of Facebook's open-sourced DLRM: a set of embedding tables with
a per-table lookup count, a bottom MLP operating on dense features, a
dot-product feature-interaction stage, and a top MLP ending in a sigmoid.

The paper's Table I characterizes models by four aggregate quantities
(number of tables, gathers per table, total embedding-table bytes and MLP
bytes); :class:`DLRMConfig` exposes all of them as derived properties so the
Table I reproduction can print them directly.  The aggregates the performance
models read on every priced batch are computed once per (frozen) instance
and stored on it: :func:`functools.cached_property` for properties,
:func:`_once` for per-sample methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, wraps
from itertools import groupby
from typing import Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.units import bytes_to_human

#: Bytes per embedding element / MLP weight (fp32 throughout the paper).
DTYPE_BYTES = 4


def _once(method):
    """Memoize a zero-argument method of a frozen config on its instance.

    The method-call counterpart of :func:`functools.cached_property`: the
    first call computes the value, later calls read it back.
    """
    slot = f"_{method.__name__}"

    @wraps(method)
    def memoized(self):
        memo = vars(self)
        if slot not in memo:
            memo[slot] = method(self)
        return memo[slot]

    return memoized


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """One sparse embedding lookup table.

    Attributes:
        num_rows: Number of embedding vectors stored in the table (scales
            with the number of users/items of the service).
        embedding_dim: Width of each embedding vector (32 by default, as in
            the paper and DLRM's published configurations).
        gathers: Number of lookups ("pooling factor") performed on this table
            per inference sample.
    """

    num_rows: int
    embedding_dim: int = 32
    gathers: int = 20

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ConfigurationError(f"num_rows must be positive, got {self.num_rows}")
        if self.embedding_dim <= 0:
            raise ConfigurationError(
                f"embedding_dim must be positive, got {self.embedding_dim}"
            )
        if self.gathers <= 0:
            raise ConfigurationError(f"gathers must be positive, got {self.gathers}")

    @property
    def row_bytes(self) -> int:
        """Bytes occupied by one embedding vector."""
        return self.embedding_dim * DTYPE_BYTES

    @property
    def table_bytes(self) -> int:
        """Total memory footprint of the table."""
        return self.num_rows * self.row_bytes


@dataclass(frozen=True)
class MLPConfig:
    """A stack of fully connected layers with ReLU activations in between.

    ``layer_dims`` lists every layer width *including* the input dimension,
    e.g. ``(13, 128, 64, 32)`` is a three-layer MLP taking 13 dense features
    to a 32-wide output.
    """

    layer_dims: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_dims) < 2:
            raise ConfigurationError(
                "an MLP needs an input dimension and at least one layer, got "
                f"{self.layer_dims!r}"
            )
        if any(dim <= 0 for dim in self.layer_dims):
            raise ConfigurationError(
                f"all MLP layer dimensions must be positive, got {self.layer_dims!r}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    @cached_property
    def num_parameters(self) -> int:
        """Weights plus biases across every layer."""
        total = 0
        for in_dim, out_dim in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            total += in_dim * out_dim + out_dim
        return total

    @cached_property
    def parameter_bytes(self) -> int:
        return self.num_parameters * DTYPE_BYTES

    @_once
    def flops_per_sample(self) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for one input sample."""
        flops = 0
        for in_dim, out_dim in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            flops += 2 * in_dim * out_dim
        return flops

    def with_output_dim(self, output_dim: int) -> "MLPConfig":
        """Return a copy whose last layer produces ``output_dim`` features."""
        return MLPConfig(layer_dims=self.layer_dims[:-1] + (output_dim,))


@dataclass(frozen=True)
class DLRMConfig:
    """Full configuration of one DLRM recommendation model.

    Attributes:
        name: Identifier, e.g. ``"DLRM(3)"``.
        tables: Per-table configurations (all six paper presets use identical
            tables, but heterogeneous tables are supported).
        bottom_mlp: MLP applied to the dense feature vector.  Its output
            width must equal the embedding dimension so that the dense
            feature can participate in the dot-product interaction.
        top_mlp: MLP applied to the concatenated interaction output; its
            input dimension must match :meth:`interaction_output_dim`.
        num_dense_features: Width of the raw dense-feature input.
    """

    name: str
    tables: Tuple[EmbeddingTableConfig, ...]
    bottom_mlp: MLPConfig
    top_mlp: MLPConfig
    num_dense_features: int = 13

    def __post_init__(self) -> None:
        if not self.tables:
            raise ConfigurationError("a DLRM model needs at least one embedding table")
        if self.num_dense_features <= 0:
            raise ConfigurationError(
                f"num_dense_features must be positive, got {self.num_dense_features}"
            )
        dims = {table.embedding_dim for table in self.tables}
        if len(dims) != 1:
            raise ConfigurationError(
                "all embedding tables must share one embedding dimension for the "
                f"dot-product interaction, got {sorted(dims)}"
            )
        if self.bottom_mlp.input_dim != self.num_dense_features:
            raise ConfigurationError(
                "bottom MLP input dimension "
                f"({self.bottom_mlp.input_dim}) must equal num_dense_features "
                f"({self.num_dense_features})"
            )
        if self.bottom_mlp.output_dim != self.embedding_dim:
            raise ConfigurationError(
                "bottom MLP output dimension "
                f"({self.bottom_mlp.output_dim}) must equal the embedding "
                f"dimension ({self.embedding_dim})"
            )
        if self.top_mlp.input_dim != self.interaction_output_dim:
            raise ConfigurationError(
                "top MLP input dimension "
                f"({self.top_mlp.input_dim}) must equal the feature-interaction "
                f"output dimension ({self.interaction_output_dim})"
            )

    # ------------------------------------------------------------------
    # Table I aggregate quantities
    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def embedding_dim(self) -> int:
        return self.tables[0].embedding_dim

    @property
    def gathers_per_table(self) -> float:
        """Average number of lookups per table per sample."""
        return sum(table.gathers for table in self.tables) / len(self.tables)

    @cached_property
    def total_gathers_per_sample(self) -> int:
        return sum(table.gathers for table in self.tables)

    @cached_property
    def embedding_table_bytes(self) -> int:
        """Aggregate embedding-table footprint ("Table size" in Table I)."""
        return sum(table.table_bytes for table in self.tables)

    @cached_property
    def table_runs(self) -> Tuple[Tuple[int, EmbeddingTableConfig], ...]:
        """Runs of consecutive equal tables as ``(count, table)``, in table order.

        A homogeneous preset is one run; ``A A B A`` is three runs, because
        only adjacent tables merge and per-table sums keep their order.
        """
        return tuple((len(tuple(run)), table) for table, run in groupby(self.tables))

    @cached_property
    def largest_table_bytes(self) -> int:
        """Footprint of the largest embedding table."""
        return max(table.table_bytes for table in self.tables)

    @cached_property
    def mlp_parameter_bytes(self) -> int:
        """Aggregate MLP model size ("MLP size" in Table I)."""
        return self.bottom_mlp.parameter_bytes + self.top_mlp.parameter_bytes

    # ------------------------------------------------------------------
    # Shapes derived from the DLRM dataflow
    # ------------------------------------------------------------------
    @property
    def num_interaction_vectors(self) -> int:
        """Vectors entering the dot-product interaction (tables + bottom MLP)."""
        return self.num_tables + 1

    @property
    def num_interaction_pairs(self) -> int:
        """Distinct vector pairs produced by the dot-product interaction."""
        n = self.num_interaction_vectors
        return n * (n - 1) // 2

    @property
    def interaction_output_dim(self) -> int:
        """Width of the concatenated top-MLP input (pairs + bottom MLP output)."""
        return self.num_interaction_pairs + self.embedding_dim

    # ------------------------------------------------------------------
    # Per-sample work estimates used throughout the performance models
    # ------------------------------------------------------------------
    @_once
    def embedding_bytes_per_sample(self) -> int:
        """Useful bytes gathered from embedding tables for one sample."""
        return sum(table.gathers * table.row_bytes for table in self.tables)

    def sparse_index_bytes_per_sample(self) -> int:
        """Bytes of sparse indices (int32) consumed by one sample."""
        return self.total_gathers_per_sample * DTYPE_BYTES

    def dense_feature_bytes_per_sample(self) -> int:
        """Bytes of dense features consumed by one sample."""
        return self.num_dense_features * DTYPE_BYTES

    def reduction_flops_per_sample(self) -> int:
        """Element-wise additions performed by embedding reductions."""
        flops = 0
        for table in self.tables:
            # Reducing G gathered vectors of width D needs (G - 1) * D adds.
            flops += max(table.gathers - 1, 0) * table.embedding_dim
        return flops

    def interaction_flops_per_sample(self) -> int:
        """FLOPs of the batched-GEMM dot-product feature interaction."""
        return 2 * self.num_interaction_pairs * self.embedding_dim

    def mlp_flops_per_sample(self) -> int:
        """FLOPs of bottom + top MLP for one sample."""
        return self.bottom_mlp.flops_per_sample() + self.top_mlp.flops_per_sample()

    @_once
    def total_dense_flops_per_sample(self) -> int:
        """All GEMM-like FLOPs handled by the dense accelerator per sample."""
        return self.mlp_flops_per_sample() + self.interaction_flops_per_sample()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_gathers_per_table(self, gathers: int) -> "DLRMConfig":
        """Return a copy where every table performs ``gathers`` lookups."""
        new_tables = tuple(replace(table, gathers=gathers) for table in self.tables)
        return replace(self, tables=new_tables)

    def summary(self) -> str:
        """One-line description in the style of a Table I row."""
        return (
            f"{self.name}: {self.num_tables} tables, "
            f"{self.gathers_per_table:.0f} gathers/table, "
            f"{bytes_to_human(self.embedding_table_bytes)} tables, "
            f"{bytes_to_human(self.mlp_parameter_bytes)} MLP"
        )


def homogeneous_dlrm(
    name: str,
    num_tables: int,
    rows_per_table: int,
    gathers_per_table: int,
    embedding_dim: int = 32,
    bottom_hidden: Sequence[int] = (128, 64),
    top_hidden: Sequence[int] = (64, 32),
    num_dense_features: int = 13,
) -> DLRMConfig:
    """Build a DLRM model with identical embedding tables.

    This mirrors how the paper constructs its six benchmark configurations:
    pick a table count, a per-table size and a per-table lookup count, and
    attach small bottom/top MLPs around the interaction stage.

    Args:
        name: Model identifier.
        num_tables: Number of embedding tables.
        rows_per_table: Rows per table.
        gathers_per_table: Lookups per table per sample.
        embedding_dim: Embedding vector width.
        bottom_hidden: Hidden layer widths of the bottom MLP (the output
            layer of width ``embedding_dim`` is appended automatically).
        top_hidden: Hidden layer widths of the top MLP (a final single-unit
            output layer is appended automatically).
        num_dense_features: Width of the dense-feature input.

    Returns:
        A fully validated :class:`DLRMConfig`.
    """
    table = EmbeddingTableConfig(
        num_rows=rows_per_table,
        embedding_dim=embedding_dim,
        gathers=gathers_per_table,
    )
    tables = tuple(table for _ in range(num_tables))
    bottom = MLPConfig(
        layer_dims=(num_dense_features, *bottom_hidden, embedding_dim)
    )
    n = num_tables + 1
    interaction_dim = n * (n - 1) // 2 + embedding_dim
    top = MLPConfig(layer_dims=(interaction_dim, *top_hidden, 1))
    return DLRMConfig(
        name=name,
        tables=tables,
        bottom_mlp=bottom,
        top_mlp=top,
        num_dense_features=num_dense_features,
    )
