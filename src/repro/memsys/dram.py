"""DRAM service-time model.

The model answers one question for the performance models: *given a burst of
cache-line requests with a certain amount of memory-level parallelism and a
certain row-buffer locality, how long does the DRAM subsystem take to return
them?*  It combines:

* a bandwidth bound — lines cannot stream faster than the channel peak,
* a latency/parallelism bound — with ``P`` requests in flight and an average
  access latency ``L``, throughput is at most ``P * line_bytes / L``
  (Little's law), which is what starves latency-bound CPU gathers,
* a row-buffer term — row hits are serviced at column-access latency, row
  misses pay the full activate+precharge latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.system import MemoryConfig
from repro.errors import SimulationError
from repro.memsys.address import AddressMapper


@dataclass(frozen=True)
class DRAMRequestStats:
    """Outcome of servicing one burst of line requests."""

    num_lines: int
    transferred_bytes: int
    service_time_s: float
    achieved_bandwidth: float
    row_hit_rate: float
    bandwidth_bound_s: float
    parallelism_bound_s: float

    @property
    def latency_limited(self) -> bool:
        """True when memory-level parallelism (not channel bandwidth) limited the burst."""
        return self.parallelism_bound_s > self.bandwidth_bound_s


class DRAMModel:
    """Analytic DRAM timing model parameterized by :class:`MemoryConfig`."""

    def __init__(self, config: MemoryConfig, line_bytes: int = 64):
        self.config = config
        self.line_bytes = line_bytes
        self.mapper = AddressMapper(
            line_bytes=line_bytes,
            row_buffer_bytes=config.row_buffer_bytes,
            num_channels=config.num_channels,
            banks_per_channel=config.banks_per_channel,
        )

    # ------------------------------------------------------------------
    def average_latency(self, row_hit_rate: float) -> float:
        """Average access latency for a given row-buffer hit rate.

        Row hits are serviced at roughly half the idle latency (no
        activate/precharge); misses pay the loaded latency.
        """
        if not 0.0 <= row_hit_rate <= 1.0:
            raise SimulationError(f"row_hit_rate must be in [0, 1], got {row_hit_rate}")
        hit_latency = 0.5 * self.config.idle_latency_s
        miss_latency = self.config.loaded_latency_s
        return row_hit_rate * hit_latency + (1.0 - row_hit_rate) * miss_latency

    def parallelism_limited_bandwidth(
        self, outstanding_lines: float, row_hit_rate: float = 0.0
    ) -> float:
        """Bandwidth achievable with a given number of requests in flight."""
        if outstanding_lines <= 0:
            raise SimulationError(
                f"outstanding_lines must be positive, got {outstanding_lines}"
            )
        latency = self.average_latency(row_hit_rate)
        return min(
            self.config.peak_bandwidth,
            outstanding_lines * self.line_bytes / latency,
        )

    # ------------------------------------------------------------------
    def service_burst(
        self,
        num_lines: int,
        outstanding_lines: float,
        row_hit_rate: float = 0.0,
    ) -> DRAMRequestStats:
        """Service ``num_lines`` line requests with bounded parallelism.

        Args:
            num_lines: Number of cache-line requests in the burst.
            outstanding_lines: Average memory-level parallelism sustained by
                the requester (e.g. ``threads * MSHRs`` for the CPU).
            row_hit_rate: Fraction of requests hitting an open DRAM row.
        """
        if num_lines < 0:
            raise SimulationError(f"num_lines must be non-negative, got {num_lines}")
        transferred = num_lines * self.line_bytes
        if num_lines == 0:
            return DRAMRequestStats(
                num_lines=0,
                transferred_bytes=0,
                service_time_s=0.0,
                achieved_bandwidth=0.0,
                row_hit_rate=row_hit_rate,
                bandwidth_bound_s=0.0,
                parallelism_bound_s=0.0,
            )
        bandwidth_bound = transferred / self.config.peak_bandwidth
        effective_bw = self.parallelism_limited_bandwidth(outstanding_lines, row_hit_rate)
        parallelism_bound = transferred / effective_bw
        service_time = max(bandwidth_bound, parallelism_bound)
        return DRAMRequestStats(
            num_lines=num_lines,
            transferred_bytes=transferred,
            service_time_s=service_time,
            achieved_bandwidth=transferred / service_time,
            row_hit_rate=row_hit_rate,
            bandwidth_bound_s=bandwidth_bound,
            parallelism_bound_s=parallelism_bound,
        )

    # ------------------------------------------------------------------
    def row_hit_rate_for_gathers(
        self, vector_bytes: int, table_bytes: int
    ) -> float:
        """Row-buffer hit rate of random embedding-vector gathers.

        A gathered vector of ``vector_bytes`` occupies consecutive bytes, so
        after the first line of a vector opens a row, the remaining lines of
        the *same* vector hit it; consecutive vectors land on random rows of
        a table much larger than a row buffer, so inter-vector locality is
        negligible.  This is the "128 bytes out of an 8 KB row buffer"
        observation of Section III-C.
        """
        if vector_bytes <= 0 or table_bytes <= 0:
            raise SimulationError("vector_bytes and table_bytes must be positive")
        lines_per_vector = max(1, -(-vector_bytes // self.line_bytes))
        if table_bytes <= self.config.row_buffer_bytes:
            # Tiny tables live in a handful of rows; almost everything hits.
            return 1.0 - 1.0 / max(1, lines_per_vector)
        return (lines_per_vector - 1) / lines_per_vector

    def estimate_row_hit_rate(self, line_addresses: np.ndarray) -> float:
        """Empirical per-bank row-buffer hit rate of an address stream.

        Replays the stream through one open row per bank; the tests hold
        :meth:`row_hit_rate_for_gathers` to it on random vector gathers.
        """
        line_addresses = np.asarray(line_addresses, dtype=np.int64)
        if line_addresses.size == 0:
            return 0.0
        byte_addresses = line_addresses * self.line_bytes
        rows = self.mapper.dram_row(byte_addresses)
        banks = self.mapper.bank_of_row(rows)
        hits = 0
        open_rows: dict = {}
        for row, bank in zip(rows.tolist(), banks.tolist()):
            if open_rows.get(bank) == row:
                hits += 1
            open_rows[bank] = row
        return hits / len(rows)
