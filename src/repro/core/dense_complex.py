"""Dense accelerator complex: MLP unit + feature interaction + sigmoid + SRAMs.

The dense complex executes everything GEMM-shaped in DLRM: the bottom MLP on
the dense features, the dot-product feature interaction over the reduced
embeddings forwarded by the EB-Streamer, the top MLP, and the final sigmoid.
MLP weights are uploaded once at boot and stay persistent in on-chip SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.config.models import DLRMConfig
from repro.config.system import FPGAConfig
from repro.core.interaction_unit import FeatureInteractionUnit
from repro.core.mlp_unit import MLPUnit
from repro.core.sigmoid_unit import SigmoidUnit
from repro.core.sram import SRAMBuffer
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.dlrm.mlp import MLP
    from repro.dlrm.model import DLRMOutput


@dataclass(frozen=True)
class DenseTimingEstimate:
    """Latency decomposition of the dense accelerator for one batch."""

    bottom_mlp_s: float
    interaction_s: float
    top_mlp_s: float
    sigmoid_s: float
    control_s: float

    @property
    def total_s(self) -> float:
        return (
            self.bottom_mlp_s
            + self.interaction_s
            + self.top_mlp_s
            + self.sigmoid_s
            + self.control_s
        )


class DenseAcceleratorComplex:
    """The GEMM side of Centaur (Fig. 11 of the paper).

    Args:
        fpga: Accelerator configuration (PE array shape, SRAM sizes, clock).
        sigmoid_mode: Fidelity of the sigmoid unit (``"exact"`` or
            ``"piecewise"``).
        per_layer_control_s: Control-unit overhead charged per GEMM layer
            (tile sequencing, SRAM pointer swaps).
    """

    def __init__(
        self,
        fpga: FPGAConfig,
        sigmoid_mode: str = "exact",
        per_layer_control_s: float = 0.2e-6,
    ):
        if per_layer_control_s < 0:
            raise SimulationError("per_layer_control_s must be non-negative")
        self.fpga = fpga
        self.per_layer_control_s = per_layer_control_s
        self.mlp_unit = MLPUnit(
            pe_rows=fpga.mlp_pe_rows,
            pe_cols=fpga.mlp_pe_cols,
            tile_dim=fpga.pe_tile_dim,
            flops_per_pe_per_cycle=fpga.flops_per_pe_per_cycle,
        )
        self.interaction_unit = FeatureInteractionUnit(
            num_pes=fpga.interaction_pes,
            flops_per_pe_per_cycle=fpga.flops_per_pe_per_cycle,
        )
        self.sigmoid_unit = SigmoidUnit(mode=sigmoid_mode)
        self.weight_sram = SRAMBuffer("SRAM_MLPmodel", fpga.mlp_weight_sram_bytes)
        self.dense_feature_sram = SRAMBuffer(
            "SRAM_DenseFeature", fpga.dense_feature_sram_bytes
        )
        self.mlp_input_sram = SRAMBuffer("SRAM_MLPinput", fpga.mlp_input_sram_bytes)
        self._bottom_mlp: Optional[MLP] = None
        self._top_mlp: Optional[MLP] = None

    # ------------------------------------------------------------------
    # Weight management (boot-time upload, persistent thereafter)
    # ------------------------------------------------------------------
    def load_weights(self, bottom_mlp: MLP, top_mlp: MLP) -> None:
        """Upload MLP weights into the persistent weight SRAM."""
        for index, layer in enumerate(bottom_mlp.layers):
            self.weight_sram.write(f"bottom/{index}/weight", layer.weight)
            self.weight_sram.write(f"bottom/{index}/bias", layer.bias)
        for index, layer in enumerate(top_mlp.layers):
            self.weight_sram.write(f"top/{index}/weight", layer.weight)
            self.weight_sram.write(f"top/{index}/bias", layer.bias)
        self._bottom_mlp = bottom_mlp
        self._top_mlp = top_mlp

    @property
    def weights_loaded(self) -> bool:
        return self._bottom_mlp is not None and self._top_mlp is not None

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def forward(
        self, dense_features: np.ndarray, reduced_embeddings: np.ndarray
    ) -> DLRMOutput:
        """Run the dense half of DLRM on the PE arrays.

        Args:
            dense_features: ``[batch, num_dense_features]``.
            reduced_embeddings: ``[batch, num_tables, dim]`` from the
                EB-Streamer.

        Returns:
            The batch's :class:`~repro.dlrm.model.DLRMOutput`: probabilities,
            logits and the bottom-MLP and interaction outputs computed on
            the way, beside the given reductions.
        """
        from repro.dlrm.model import DLRMOutput

        if not self.weights_loaded:
            raise SimulationError("load_weights() must be called before forward()")
        dense_features = np.asarray(dense_features, dtype=np.float32)
        batch = dense_features.shape[0]
        tile = self._max_tile_batch(dense_features, reduced_embeddings)
        if batch <= tile:
            return DLRMOutput(*self._forward_tile(dense_features, reduced_embeddings))
        # Per-inference inputs are transient and double-buffered: a batch
        # whose features exceed the input SRAMs streams through in tiles.
        tiles = [
            self._forward_tile(
                dense_features[start : start + tile], reduced_embeddings[start : start + tile]
            )
            for start in range(0, batch, tile)
        ]
        return DLRMOutput(*map(np.concatenate, zip(*tiles)))

    def _max_tile_batch(
        self, dense_features: np.ndarray, reduced_embeddings: np.ndarray
    ) -> int:
        """Largest sample count whose transient inputs fit the input SRAMs."""
        dense_row_bytes = max(dense_features.shape[1] * 4, 4)
        num_tables = reduced_embeddings.shape[1]
        interaction_dim = (
            reduced_embeddings.shape[2] + num_tables * (num_tables + 1) // 2
        )
        interaction_row_bytes = max(interaction_dim * 4, 4)
        return max(
            1,
            min(
                self.dense_feature_sram.capacity_bytes // dense_row_bytes,
                self.mlp_input_sram.capacity_bytes // interaction_row_bytes,
            ),
        )

    def _forward_tile(
        self, dense_features: np.ndarray, reduced_embeddings: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """One tile's :class:`~repro.dlrm.model.DLRMOutput` fields, in order."""
        self.dense_feature_sram.write("dense_features", dense_features)

        bottom_out = self._run_mlp_from_sram("bottom", dense_features)
        interaction = self.interaction_unit.forward(bottom_out, reduced_embeddings)
        self.mlp_input_sram.write("interaction", interaction)
        top_out = self._run_mlp_from_sram("top", interaction)
        logits = top_out[:, 0]
        probabilities = self.sigmoid_unit.forward(logits)

        # Per-inference inputs are transient; weights stay resident.
        self.dense_feature_sram.discard("dense_features")
        self.mlp_input_sram.discard("interaction")
        return probabilities, logits, reduced_embeddings, bottom_out, interaction

    def _run_mlp_from_sram(self, which: str, inputs: np.ndarray) -> np.ndarray:
        """Run one MLP using the weight tensors stored in SRAM."""
        from repro.dlrm.mlp import relu

        mlp = self._bottom_mlp if which == "bottom" else self._top_mlp
        activations = np.asarray(inputs, dtype=np.float32)
        last = len(mlp.layers) - 1
        for index, _ in enumerate(mlp.layers):
            weight = self.weight_sram.read(f"{which}/{index}/weight")
            bias = self.weight_sram.read(f"{which}/{index}/bias")
            activations = self.mlp_unit.gemm(activations, weight) + bias
            if index != last:
                activations = relu(activations)
        return activations

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def estimate(self, model: DLRMConfig, batch_size: int) -> DenseTimingEstimate:
        """Latency of the dense stages for one batch of ``model``."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        frequency = self.fpga.frequency_hz

        bottom_cycles = self.mlp_unit.mlp_cycles(model.bottom_mlp.layer_dims, batch_size)
        top_cycles = self.mlp_unit.mlp_cycles(model.top_mlp.layer_dims, batch_size)
        interaction = self.interaction_unit.timing(
            num_tables=model.num_tables,
            embedding_dim=model.embedding_dim,
            batch_size=batch_size,
        )
        sigmoid = self.sigmoid_unit.timing(batch_size)
        num_layers = model.bottom_mlp.num_layers + model.top_mlp.num_layers + 1
        control_s = num_layers * self.per_layer_control_s
        return DenseTimingEstimate(
            bottom_mlp_s=bottom_cycles / frequency,
            interaction_s=interaction.latency_s(frequency),
            top_mlp_s=top_cycles / frequency,
            sigmoid_s=sigmoid.latency_s(frequency),
            control_s=control_s,
        )
