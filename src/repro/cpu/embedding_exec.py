"""CPU execution model of the sparse embedding layer (gathers + reductions).

This is the heart of the paper's Section III characterization.  The latency
of the embedding stage on a CPU-only system is the sum of:

* a fixed per-inference layer overhead (framework entry, output allocation),
* a per-table operator dispatch cost (each ``SparseLengthsSum`` call is a
  separate operator),
* the software gather/reduce loop itself, parallelized over the batch
  dimension — so a batch of one sample runs on one core,
* the DRAM time needed to bring in the LLC-missing embedding lines, bounded
  by the memory-level parallelism the active threads' MSHRs can sustain.

The "effective memory throughput" of Figure 7 is then simply the useful
gathered bytes divided by this stage latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.config.models import DLRMConfig
from repro.config.system import CPUConfig, MemoryConfig
from repro.cpu.threads import ThreadPoolModel
from repro.errors import SimulationError
from repro.memsys.analytic import EmbeddingAccessProfile
from repro.memsys.dram import DRAMModel
from repro.memsys.stats import MemoryTrafficStats


@dataclass(frozen=True)
class EmbeddingExecutionEstimate:
    """Latency decomposition of the CPU embedding stage for one batch."""

    latency_s: float
    fixed_s: float
    dispatch_s: float
    software_s: float
    memory_s: float
    traffic: MemoryTrafficStats
    outstanding_misses: float

    @property
    def effective_throughput(self) -> float:
        """Useful gathered bytes per second over the whole stage."""
        if self.latency_s == 0:
            return 0.0
        return self.traffic.useful_bytes / self.latency_s


@dataclass(frozen=True)
class EmbeddingExecutionModel:
    """Analytic CPU model for ``SparseLengthsSum``-style embedding layers.

    Attributes:
        cpu: Host CPU configuration.
        memory: DRAM configuration.
        layer_fixed_s: Per-inference fixed overhead of the embedding stage.
        table_dispatch_s: Per-table operator dispatch overhead.
        per_lookup_software_s: Per-lookup address-generation/reduction cost
            on the executing thread (covers the vectorized accumulate).
        access_profile: Analytic LLC model used for miss counts; built from
            ``cpu`` when not supplied.
    """

    cpu: CPUConfig
    memory: MemoryConfig
    layer_fixed_s: float = 5.0e-6
    table_dispatch_s: float = 10.0e-6
    per_lookup_software_s: float = 70.0e-9
    threads: ThreadPoolModel = field(default=None)  # type: ignore[assignment]
    access_profile: Optional[EmbeddingAccessProfile] = None

    def __post_init__(self) -> None:
        if self.layer_fixed_s < 0 or self.table_dispatch_s < 0 or self.per_lookup_software_s < 0:
            raise SimulationError("embedding model overheads must be non-negative")
        if self.threads is None:
            object.__setattr__(self, "threads", ThreadPoolModel(self.cpu))
        if self.access_profile is None:
            object.__setattr__(self, "access_profile", EmbeddingAccessProfile(self.cpu))

    @cached_property
    def _dram(self) -> DRAMModel:
        """The DRAM timing model, built once per execution model."""
        return DRAMModel(self.memory, line_bytes=self.cpu.cache_line_bytes)

    # ------------------------------------------------------------------
    def estimate(self, model: DLRMConfig, batch_size: int) -> EmbeddingExecutionEstimate:
        """Estimate the embedding-stage latency of one inference batch."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        traffic = self.access_profile.compute(model, batch_size)
        dram = self._dram

        # Software gather/reduce loop, parallel over the batch dimension.
        total_lookups = model.total_gathers_per_sample * batch_size
        software_s = (
            self.threads.per_thread_share(total_lookups, batch_size)
            * self.per_lookup_software_s
        )

        # Operator dispatch is sequential over tables (one call per table).
        dispatch_s = self.table_dispatch_s * model.num_tables

        # DRAM service time for the LLC-missing lines, limited by the
        # memory-level parallelism of the active threads.
        outstanding = self.threads.outstanding_misses(batch_size)
        row_hit_rate = dram.row_hit_rate_for_gathers(
            vector_bytes=model.embedding_dim * 4,
            table_bytes=model.largest_table_bytes,
        )
        burst = dram.service_burst(
            num_lines=traffic.llc.misses,
            outstanding_lines=outstanding,
            row_hit_rate=row_hit_rate,
        )
        memory_s = burst.service_time_s

        latency_s = self.layer_fixed_s + dispatch_s + software_s + memory_s
        return EmbeddingExecutionEstimate(
            latency_s=latency_s,
            fixed_s=self.layer_fixed_s,
            dispatch_s=dispatch_s,
            software_s=software_s,
            memory_s=memory_s,
            traffic=traffic,
            outstanding_misses=outstanding,
        )

    # ------------------------------------------------------------------
    def effective_throughput(self, model: DLRMConfig, batch_size: int) -> float:
        """Convenience wrapper returning only the effective throughput (B/s)."""
        return self.estimate(model, batch_size).effective_throughput
