"""MLP unit: a spatial PE array executing GEMMs with an output-stationary dataflow.

The unit tiles the input and weight matrices into ``[32 x 32]`` tiles, walks
the output tiles in an output-stationary order (each output tile stays in
its PE's accumulation SRAM while the K-dimension is reduced), and broadcasts
weight/input tiles across rows/columns of the PE array — Fig. 12 of the
paper.

Two views are provided: a functional tiled GEMM (bit-identical to a dense
``A @ B`` up to fp32 accumulation order) and a cycle/timing estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.pe import ProcessingEngine
from repro.dlrm.mlp import MLP, relu
from repro.errors import ConfigurationError, ModelShapeError


@dataclass(frozen=True)
class GemmTiming:
    """Cycle-level cost of one tiled GEMM on the PE array."""

    m: int
    n: int
    k: int
    tile_ops: int
    waves: int
    cycles: int
    utilization: float

    def latency_s(self, frequency_hz: float) -> float:
        return self.cycles / frequency_hz


class MLPUnit:
    """A ``rows x cols`` array of :class:`ProcessingEngine` running GEMMs.

    Args:
        pe_rows / pe_cols: Shape of the spatial PE array (4x4 in the paper).
        tile_dim: Tile edge (32).
        flops_per_pe_per_cycle: Per-PE sustained throughput.
        fill_cycles: Pipeline fill/drain overhead charged once per GEMM.
    """

    def __init__(
        self,
        pe_rows: int = 4,
        pe_cols: int = 4,
        tile_dim: int = 32,
        flops_per_pe_per_cycle: float = 78.25,
        fill_cycles: int = 64,
    ):
        if pe_rows <= 0 or pe_cols <= 0:
            raise ConfigurationError("PE array dimensions must be positive")
        if fill_cycles < 0:
            raise ConfigurationError(f"fill_cycles must be non-negative, got {fill_cycles}")
        self.pe_rows = pe_rows
        self.pe_cols = pe_cols
        self.tile_dim = tile_dim
        self.fill_cycles = fill_cycles
        self.pes: List[List[ProcessingEngine]] = [
            [
                ProcessingEngine(tile_dim=tile_dim, flops_per_cycle=flops_per_pe_per_cycle)
                for _ in range(pe_cols)
            ]
            for _ in range(pe_rows)
        ]
        # Every PE is built alike, so the array's timing constants are fixed
        # here rather than re-derived for each GEMM priced.
        self.num_pes = pe_rows * pe_cols
        self.cycles_per_tile_op = self.pes[0][0].cycles_per_tile_op
        self._flops_per_tile_op = self.pes[0][0].flops_per_tile_op

    def _pe(self, output_row_tile: int, output_col_tile: int) -> ProcessingEngine:
        """PE owning a given output tile (round-robin over the array)."""
        return self.pes[output_row_tile % self.pe_rows][output_col_tile % self.pe_cols]

    # ------------------------------------------------------------------
    # Functional tiled GEMM
    # ------------------------------------------------------------------
    def gemm(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Compute ``inputs @ weights`` with the output-stationary tiling.

        Args:
            inputs: ``[M, K]`` activation matrix.
            weights: ``[K, N]`` weight matrix.

        Returns:
            ``[M, N]`` float32 product, numerically equal to the dense GEMM.
        """
        inputs = np.asarray(inputs, dtype=np.float32)
        weights = np.asarray(weights, dtype=np.float32)
        if inputs.ndim != 2 or weights.ndim != 2:
            raise ModelShapeError("gemm operands must both be 2-D")
        if inputs.shape[1] != weights.shape[0]:
            raise ModelShapeError(
                f"inner dimensions do not match: {inputs.shape} @ {weights.shape}"
            )
        m, k = inputs.shape
        _, n = weights.shape
        t = self.tile_dim
        m_tiles, n_tiles, k_tiles = -(-m // t), -(-n // t), -(-k // t)

        padded_inputs = np.zeros((m_tiles * t, k_tiles * t), dtype=np.float32)
        padded_inputs[:m, :k] = inputs
        padded_weights = np.zeros((k_tiles * t, n_tiles * t), dtype=np.float32)
        padded_weights[:k, :n] = weights
        output = np.zeros((m_tiles * t, n_tiles * t), dtype=np.float32)

        for row_tile in range(m_tiles):
            for col_tile in range(n_tiles):
                pe = self._pe(row_tile, col_tile)
                accumulator = np.zeros((t, t), dtype=np.float32)
                for k_tile in range(k_tiles):
                    a_tile = padded_inputs[
                        row_tile * t : (row_tile + 1) * t, k_tile * t : (k_tile + 1) * t
                    ]
                    b_tile = padded_weights[
                        k_tile * t : (k_tile + 1) * t, col_tile * t : (col_tile + 1) * t
                    ]
                    accumulator += pe.multiply(a_tile, b_tile)
                output[row_tile * t : (row_tile + 1) * t, col_tile * t : (col_tile + 1) * t] = (
                    accumulator
                )
        return output[:m, :n]

    def run_mlp(self, mlp: MLP, inputs: np.ndarray) -> np.ndarray:
        """Run a full MLP through the PE array (ReLU between layers)."""
        activations = np.asarray(inputs, dtype=np.float32)
        last = len(mlp.layers) - 1
        for index, layer in enumerate(mlp.layers):
            activations = self.gemm(activations, layer.weight) + layer.bias
            if index != last:
                activations = relu(activations)
        return activations

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def gemm_timing(self, m: int, n: int, k: int) -> GemmTiming:
        """Cycle cost of one ``[M,K] @ [K,N]`` GEMM on the array.

        The control unit distributes tile multiplies over the PE array.  When
        there are enough output tiles to occupy every PE, the schedule is the
        pure output-stationary one of Fig. 12 (each PE owns an output tile
        and walks the K dimension).  When the output-tile count cannot fill
        the array (small batches, narrow layers), the control unit splits the
        K dimension across otherwise-idle PEs and merges their partial sums,
        so the number of PE "waves" is bounded by the total tile-multiply
        count divided by the array size rather than by the serialized K walk.
        """
        if m <= 0 or n <= 0 or k <= 0:
            raise ModelShapeError(f"GEMM dimensions must be positive, got {(m, n, k)}")
        t = self.tile_dim
        tile_ops = -(-m // t) * -(-n // t) * -(-k // t)
        return GemmTiming(
            m=m,
            n=n,
            k=k,
            tile_ops=tile_ops,
            waves=-(-tile_ops // self.num_pes),
            cycles=self.gemm_cycles(m, n, k),
            utilization=2 * m * n * k / (tile_ops * self._flops_per_tile_op),
        )

    def gemm_cycles(self, m: int, n: int, k: int) -> int:
        """Cycles of one GEMM under the schedule :meth:`gemm_timing` describes.

        The shape is taken as valid; :meth:`gemm_timing` checks it.
        """
        t = self.tile_dim
        output_tiles = -(-m // t) * -(-n // t)
        k_tiles = -(-k // t)
        waves = -(-(output_tiles * k_tiles) // self.num_pes)
        # K-split partial sums merge at one extra tile-width of cycles per
        # reduced tile when the fallback mapping is active.
        merge_cycles = t * k_tiles if output_tiles < self.num_pes else 0
        return waves * self.cycles_per_tile_op + merge_cycles + self.fill_cycles

    def mlp_cycles(self, layer_dims: Sequence[int], batch_size: int) -> int:
        """Total cycles of an MLP with the given layer widths."""
        if batch_size <= 0:
            raise ModelShapeError(f"batch_size must be positive, got {batch_size}")
        return sum(
            self.gemm_cycles(batch_size, out_dim, in_dim)
            for in_dim, out_dim in zip(layer_dims[:-1], layer_dims[1:])
        )

    def mlp_timing(self, layer_dims: Sequence[int], batch_size: int) -> List[GemmTiming]:
        """Per-layer timings of an MLP with the given layer widths."""
        if batch_size <= 0:
            raise ModelShapeError(f"batch_size must be positive, got {batch_size}")
        timings = []
        for in_dim, out_dim in zip(layer_dims[:-1], layer_dims[1:]):
            timings.append(self.gemm_timing(m=batch_size, n=out_dim, k=in_dim))
        return timings

    def reset_counters(self) -> None:
        for row in self.pes:
            for pe in row:
                pe.reset_counters()
