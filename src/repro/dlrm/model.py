"""End-to-end DLRM model: embeddings -> bottom MLP -> interaction -> top MLP.

This is the functional counterpart of the paper's Fig. 1.  The forward pass
returns both the final event probabilities and every intermediate tensor so
that the hardware models (and tests) can check, stage by stage, that their
partitioning of the computation is numerically equivalent to running the
whole model in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.models import DLRMConfig
from repro.dlrm.embedding import EmbeddingBagCollection
from repro.dlrm.interaction import dot_feature_interaction
from repro.dlrm.mlp import MLP, sigmoid
from repro.workloads.traces import DLRMBatch
from repro.errors import ModelShapeError


@dataclass(frozen=True)
class DLRMOutput:
    """All tensors produced by one DLRM forward pass.

    Attributes:
        probabilities: ``[batch]`` event probabilities (sigmoid output).
        logits: ``[batch]`` pre-sigmoid scores.
        reduced_embeddings: ``[batch, num_tables, dim]`` per-table reductions.
        bottom_mlp_output: ``[batch, dim]`` dense-feature projection.
        interaction_output: ``[batch, interaction_dim]`` top-MLP input.
    """

    probabilities: np.ndarray
    logits: np.ndarray
    reduced_embeddings: np.ndarray
    bottom_mlp_output: np.ndarray
    interaction_output: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.probabilities.shape[0])


class DLRM:
    """A complete DLRM inference model with concrete weights.

    Build one with :meth:`from_config` (random weights, virtual or dense
    embedding storage) or assemble the pieces manually for tests.
    """

    def __init__(
        self,
        config: DLRMConfig,
        embeddings: EmbeddingBagCollection,
        bottom_mlp: MLP,
        top_mlp: MLP,
    ):
        if embeddings.num_tables != config.num_tables:
            raise ModelShapeError(
                f"config declares {config.num_tables} tables but the collection has "
                f"{embeddings.num_tables}"
            )
        if embeddings.embedding_dim != config.embedding_dim:
            raise ModelShapeError(
                f"config embedding dim {config.embedding_dim} does not match table dim "
                f"{embeddings.embedding_dim}"
            )
        if bottom_mlp.in_dim != config.num_dense_features:
            raise ModelShapeError(
                f"bottom MLP expects {bottom_mlp.in_dim} dense features, config has "
                f"{config.num_dense_features}"
            )
        if bottom_mlp.out_dim != config.embedding_dim:
            raise ModelShapeError(
                "bottom MLP output dim must equal the embedding dim "
                f"({bottom_mlp.out_dim} != {config.embedding_dim})"
            )
        if top_mlp.in_dim != config.interaction_output_dim:
            raise ModelShapeError(
                "top MLP input dim must equal the interaction output dim "
                f"({top_mlp.in_dim} != {config.interaction_output_dim})"
            )
        self.config = config
        self.embeddings = embeddings
        self.bottom_mlp = bottom_mlp
        self.top_mlp = top_mlp

    @classmethod
    def from_config(
        cls,
        config: DLRMConfig,
        seed: int = 0,
        storage: str = "virtual",
    ) -> "DLRM":
        """Instantiate the model with deterministic random weights.

        Args:
            config: The model architecture.
            seed: Seed for all weight initialization.
            storage: Embedding storage strategy, ``"virtual"`` (default,
                memory-frugal) or ``"dense"``.
        """
        rng = np.random.default_rng(seed)
        embeddings = EmbeddingBagCollection.from_configs(
            config.tables, storage=storage, seed=seed, rng=rng
        )
        bottom = MLP.from_config(config.bottom_mlp, rng=rng)
        top = MLP.from_config(config.top_mlp, rng=rng)
        return cls(config=config, embeddings=embeddings, bottom_mlp=bottom, top_mlp=top)

    def forward(self, batch: DLRMBatch) -> DLRMOutput:
        """Run one inference batch through the full model."""
        if batch.num_tables != self.config.num_tables:
            raise ModelShapeError(
                f"batch provides {batch.num_tables} sparse traces but the model has "
                f"{self.config.num_tables} tables"
            )
        if batch.dense_features.shape[1] != self.config.num_dense_features:
            raise ModelShapeError(
                f"batch provides {batch.dense_features.shape[1]} dense features but the "
                f"model expects {self.config.num_dense_features}"
            )
        reduced = self.embeddings.forward(batch.sparse_traces)
        bottom_out = self.bottom_mlp.forward(batch.dense_features)
        interaction = dot_feature_interaction(bottom_out, reduced)
        logits = self.top_mlp.forward(interaction)[:, 0]
        probabilities = sigmoid(logits)
        return DLRMOutput(
            probabilities=probabilities,
            logits=logits,
            reduced_embeddings=reduced,
            bottom_mlp_output=bottom_out,
            interaction_output=interaction,
        )

    def predict(self, batch: DLRMBatch) -> np.ndarray:
        """Convenience wrapper returning only the event probabilities."""
        return self.forward(batch).probabilities

    # ------------------------------------------------------------------
    # Work accounting used by examples and sanity checks
    # ------------------------------------------------------------------
    def flops_per_sample(self) -> int:
        """GEMM-like FLOPs per sample (MLPs + feature interaction)."""
        return self.config.total_dense_flops_per_sample()

    def embedding_bytes_per_sample(self) -> int:
        """Useful embedding bytes gathered per sample."""
        return self.config.embedding_bytes_per_sample()

    def model_summary(self) -> str:
        """Multi-line human-readable description of the model."""
        config = self.config
        lines = [
            f"{config.name}",
            f"  embedding tables : {config.num_tables} x "
            f"{config.tables[0].num_rows} rows x {config.embedding_dim} dims",
            f"  gathers per table: {config.gathers_per_table:.0f}",
            f"  table footprint  : {config.embedding_table_bytes / 1e6:.1f} MB",
            f"  bottom MLP       : {'-'.join(str(d) for d in config.bottom_mlp.layer_dims)}",
            f"  top MLP          : {'-'.join(str(d) for d in config.top_mlp.layer_dims)}",
            f"  MLP parameters   : {config.mlp_parameter_bytes / 1e3:.1f} KB",
        ]
        return "\n".join(lines)
