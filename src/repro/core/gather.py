"""Embedding gather unit (EB-GU) of the sparse accelerator complex.

The gather unit is "nothing more than an address generator": it combines the
embedding-table base pointer from the BPregs with the sparse index IDs held
in the index SRAM to emit CPU->FPGA read requests, as aggressively as the
link's outstanding-request budget allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.registers import BasePointerRegisters
    from repro.core.sram import SRAMBuffer


@dataclass(frozen=True)
class GatherRequest:
    """One embedding-vector read request emitted by the gather unit."""

    table_name: str
    row_index: int
    address: int
    num_bytes: int
    sample_index: int

    @property
    def num_lines(self) -> int:
        """Cache lines this request occupies on the link (64-byte granules)."""
        return -(-self.num_bytes // 64)


class EmbeddingGatherUnit:
    """Generates gather addresses from base pointers and sparse indices."""

    def __init__(self, registers: BasePointerRegisters, index_sram: SRAMBuffer):
        self.registers = registers
        self.index_sram = index_sram
        self.requests_generated = 0

    # ------------------------------------------------------------------
    def load_indices(self, table_name: str, indices: np.ndarray, offsets: np.ndarray) -> None:
        """Populate the sparse-index SRAM for one table's batch of lookups."""
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 2:
            raise SimulationError("offsets must be one-dimensional with at least two entries")
        if offsets[-1] != len(indices):
            raise SimulationError(
                f"offsets end at {offsets[-1]} but there are {len(indices)} indices"
            )
        # Indices are stored as 32-bit values in the SRAM, as the RTL does.
        self.index_sram.write(f"{table_name}/indices", indices.astype(np.int32))
        self.index_sram.write(f"{table_name}/offsets", offsets.astype(np.int32))

    def generate_requests(
        self, table_name: str, row_bytes: int
    ) -> Iterator[GatherRequest]:
        """Yield one :class:`GatherRequest` per lookup stored for a table.

        Args:
            table_name: Table whose indices were loaded via :meth:`load_indices`.
            row_bytes: Size of one embedding vector in bytes.
        """
        if row_bytes <= 0 or row_bytes % 4 != 0:
            raise SimulationError(f"row_bytes must be a positive multiple of 4, got {row_bytes}")
        base_address = self.registers.read(f"table/{table_name}")
        indices = self.index_sram.read(f"{table_name}/indices")
        offsets = self.index_sram.read(f"{table_name}/offsets")
        sample = 0
        for position, row_index in enumerate(indices.tolist()):
            while position >= offsets[sample + 1]:
                sample += 1
            self.requests_generated += 1
            yield GatherRequest(
                table_name=table_name,
                row_index=int(row_index),
                address=base_address + int(row_index) * row_bytes,
                num_bytes=row_bytes,
                sample_index=sample,
            )

    def request_batch(
        self, table_name: str, row_bytes: int
    ) -> List[GatherRequest]:
        """Materialize all requests for a table (convenience for the functional path)."""
        return list(self.generate_requests(table_name, row_bytes))

    # ------------------------------------------------------------------
    @staticmethod
    def total_lines(requests: Sequence[GatherRequest]) -> int:
        """Total link lines a set of requests will occupy."""
        return sum(request.num_lines for request in requests)
