"""Host-memory, IOMMU and MMIO models (the paper's "software interface").

The package-integrated CPU+FPGA exposes a single *shared* physical memory
with "pointer-is-a-pointer" semantics: the host writes virtual base
addresses over MMIO, and the FPGA-side IOMMU/TLB translates the addresses of
hardware-issued reads.  This module provides:

* :class:`HostMemory` — a flat virtual address space in which the host
  registers its data structures (index arrays, embedding tables, weights);
  the accelerator reads it at arbitrary element-aligned offsets, exactly the
  fine-grained access pattern a discrete GPU/FPGA cannot perform without
  DMA copies.
* :class:`IOMMU` — page-granular virtual-to-physical translation with a TLB
  whose hit/miss statistics are exposed for analysis.
* :class:`MMIOInterface` — the host-side driver operations (writing base
  pointers, ringing doorbells) with their latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from repro.core.registers import BasePointerRegisters
from repro.dlrm.embedding import EmbeddingTableBase
from repro.errors import ConfigurationError, SimulationError

#: Backing store of one host-memory region: either a real array or an
#: embedding table (possibly virtual, i.e. rows generated on demand).
RegionBacking = Union[np.ndarray, EmbeddingTableBase]


@dataclass
class HostMemoryRegion:
    """One registered region of the shared virtual address space."""

    name: str
    base_address: int
    size_bytes: int
    backing: RegionBacking

    @property
    def end_address(self) -> int:
        return self.base_address + self.size_bytes

    def contains(self, address: int, num_bytes: int = 1) -> bool:
        return self.base_address <= address and address + num_bytes <= self.end_address


class HostMemory:
    """A flat virtual address space shared by the CPU and the FPGA chiplet.

    Regions are allocated at page-aligned, monotonically increasing virtual
    addresses.  Reads and writes are element (4-byte) aligned, which is the
    granularity every Centaur access uses (fp32 embeddings, int32 indices).
    """

    def __init__(self, page_bytes: int = 4096, base_address: int = 0x1000_0000):
        if page_bytes <= 0 or page_bytes % 4 != 0:
            raise ConfigurationError(
                f"page_bytes must be a positive multiple of 4, got {page_bytes}"
            )
        self.page_bytes = page_bytes
        self._next_address = base_address
        self._regions: Dict[str, HostMemoryRegion] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def register(self, name: str, backing: RegionBacking) -> HostMemoryRegion:
        """Register a data structure and return its region (with base address)."""
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} is already registered")
        if isinstance(backing, EmbeddingTableBase):
            size_bytes = backing.table_bytes
        else:
            backing = np.ascontiguousarray(backing)
            size_bytes = backing.nbytes
        if size_bytes == 0:
            raise ConfigurationError(f"region {name!r} would be empty")
        region = HostMemoryRegion(
            name=name,
            base_address=self._next_address,
            size_bytes=size_bytes,
            backing=backing,
        )
        self._regions[name] = region
        pages = -(-size_bytes // self.page_bytes)
        self._next_address += pages * self.page_bytes
        return region

    def region(self, name: str) -> HostMemoryRegion:
        if name not in self._regions:
            raise KeyError(f"no host-memory region named {name!r}")
        return self._regions[name]

    def unregister(self, name: str) -> None:
        """Remove a region (e.g. per-inference inputs when replaced)."""
        self._regions.pop(name, None)

    def find_region(self, address: int, num_bytes: int) -> HostMemoryRegion:
        """Locate the region containing an address span."""
        for region in self._regions.values():
            if region.contains(address, num_bytes):
                return region
        raise SimulationError(
            f"address range [{address}, {address + num_bytes}) maps to no registered region"
        )

    # ------------------------------------------------------------------
    def read(self, address: int, num_bytes: int) -> np.ndarray:
        """Read ``num_bytes`` (4-byte aligned) returning a float32 view.

        Embedding-table-backed regions are read at row granularity (the only
        pattern the gather unit generates); array-backed regions support any
        element-aligned span.
        """
        if num_bytes <= 0 or num_bytes % 4 != 0:
            raise SimulationError(f"reads must be positive multiples of 4 bytes, got {num_bytes}")
        if address % 4 != 0:
            raise SimulationError(f"reads must be 4-byte aligned, got address {address}")
        region = self.find_region(address, num_bytes)
        offset = address - region.base_address
        self.bytes_read += num_bytes
        backing = region.backing
        if isinstance(backing, EmbeddingTableBase):
            row_bytes = backing.row_bytes
            if offset % row_bytes != 0 or num_bytes % row_bytes != 0:
                raise SimulationError(
                    f"embedding-table region {region.name!r} must be read at row "
                    f"granularity ({row_bytes} bytes)"
                )
            first_row = offset // row_bytes
            num_rows = num_bytes // row_bytes
            rows = backing.rows(np.arange(first_row, first_row + num_rows, dtype=np.int64))
            return rows.reshape(-1)
        flat = backing.reshape(-1).view(np.float32)
        start = offset // 4
        return flat[start : start + num_bytes // 4]

    def write(self, address: int, values: np.ndarray) -> None:
        """Write float32 values into an array-backed region (FPGA->CPU result copy)."""
        values = np.ascontiguousarray(values, dtype=np.float32).reshape(-1)
        num_bytes = values.nbytes
        if address % 4 != 0:
            raise SimulationError(f"writes must be 4-byte aligned, got address {address}")
        region = self.find_region(address, num_bytes)
        if isinstance(region.backing, EmbeddingTableBase):
            raise SimulationError(
                f"cannot write into embedding-table region {region.name!r}"
            )
        offset = (address - region.base_address) // 4
        flat = region.backing.reshape(-1).view(np.float32)
        flat[offset : offset + values.size] = values
        self.bytes_written += num_bytes


class IOMMU:
    """Page-granular address translation with a small TLB.

    Translation is identity-mapped (virtual page ``p`` -> physical page
    ``p``), because the reproduction has no need for a real page table; what
    matters for the performance model is the TLB hit/miss accounting, which
    the detailed EB-Streamer model can fold into its request latency.
    """

    def __init__(self, page_bytes: int = 4096, tlb_entries: int = 128):
        if page_bytes <= 0:
            raise ConfigurationError(f"page_bytes must be positive, got {page_bytes}")
        if tlb_entries <= 0:
            raise ConfigurationError(f"tlb_entries must be positive, got {tlb_entries}")
        self.page_bytes = page_bytes
        self.tlb_entries = tlb_entries
        self._tlb: Dict[int, int] = {}
        self._lru_clock = 0
        self._tlb_stamp: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def translate(self, virtual_address: int) -> Tuple[int, bool]:
        """Translate an address; returns ``(physical_address, tlb_hit)``."""
        if virtual_address < 0:
            raise SimulationError(f"virtual address must be non-negative, got {virtual_address}")
        page = virtual_address // self.page_bytes
        offset = virtual_address % self.page_bytes
        self._lru_clock += 1
        if page in self._tlb:
            self.hits += 1
            self._tlb_stamp[page] = self._lru_clock
            return self._tlb[page] * self.page_bytes + offset, True
        self.misses += 1
        if len(self._tlb) >= self.tlb_entries:
            victim = min(self._tlb_stamp, key=self._tlb_stamp.get)
            del self._tlb[victim]
            del self._tlb_stamp[victim]
        self._tlb[page] = page  # identity mapping
        self._tlb_stamp[page] = self._lru_clock
        return page * self.page_bytes + offset, False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MMIOInterface:
    """Host-side driver operations against the accelerator's register file."""

    def __init__(self, registers: BasePointerRegisters, write_latency_s: float = 1.0e-6):
        if write_latency_s < 0:
            raise ConfigurationError(
                f"write_latency_s must be non-negative, got {write_latency_s}"
            )
        self.registers = registers
        self.write_latency_s = write_latency_s
        self.total_writes = 0
        self.total_latency_s = 0.0

    def write_base_pointer(self, name: str, address: int) -> float:
        """Write one base pointer; returns the latency spent doing so."""
        self.registers.write(name, address)
        self.total_writes += 1
        self.total_latency_s += self.write_latency_s
        return self.write_latency_s

    def write_region_pointer(self, name: str, region) -> float:
        """Convenience: write the base address of a :class:`HostMemoryRegion`."""
        return self.write_base_pointer(name, region.base_address)

    def doorbell(self) -> float:
        """Ring the 'start inference' doorbell register."""
        self.total_writes += 1
        self.total_latency_s += self.write_latency_s
        return self.write_latency_s
