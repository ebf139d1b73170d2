"""MLP unit: a spatial PE array executing GEMMs on ``[32 x 32]`` tiles.

The unit tiles the input and weight matrices into ``[32 x 32]`` tiles and
broadcasts weight/input tiles across rows/columns of the PE array (Fig. 12
of the paper).  The priced dataflow depends on how many output tiles a GEMM
has:

* when the output tiles fill the array, it is output-stationary: each PE
  owns an output tile, keeps it in its accumulation SRAM and walks the K
  dimension;
* below that (small batches, narrow layers), the K dimension is split
  across the otherwise idle PEs and their partial sums are merged.

Two views are provided: a functional tiled GEMM (bit-identical to a dense
``A @ B`` up to fp32 accumulation order) and the cycle count of that
dataflow, :meth:`MLPUnit.gemm_cycles`, which Centaur's dense estimate sums.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.pe import ProcessingEngine
from repro.errors import ConfigurationError, ModelShapeError


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

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def gemm_cycles(self, m: int, n: int, k: int) -> int:
        """Cycles of one ``[M,K] @ [K,N]`` GEMM on the array.

        The control unit distributes tile multiplies over the PE array.  When
        there are enough output tiles to occupy every PE, the schedule is the
        pure output-stationary one of Fig. 12 (each PE owns an output tile
        and walks the K dimension).  When the output-tile count cannot fill
        the array, the control unit splits the K dimension across otherwise
        idle PEs and merges their partial sums, so the number of PE "waves"
        is the total tile-multiply count divided by the array size rather
        than the serialized K walk.  Every GEMM also pays ``fill_cycles``.
        """
        if m <= 0 or n <= 0 or k <= 0:
            raise ModelShapeError(f"GEMM dimensions must be positive, got {(m, n, k)}")
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

    def reset_counters(self) -> None:
        for row in self.pes:
            for pe in row:
                pe.reset_counters()
