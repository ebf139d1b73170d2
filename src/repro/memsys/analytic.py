"""Closed-form cache/traffic models for full-scale Table I configurations.

The trace-driven simulator in :mod:`repro.memsys.cache` cannot replay a
3.2 GB table's access stream in reasonable time, so the benchmark harness
uses these analytic profiles instead.  They model the same three quantities
the paper characterizes in Figures 6 and 7:

* LLC accesses / misses (miss rate) of the embedding and MLP layers,
* misses per kilo-instruction (MPKI),
* useful bytes versus transferred bytes (for effective memory throughput).

The models treat gathered embedding lines as uniformly random over the
table (the paper's low-locality assumption), account for intra-batch reuse
of rows, and treat every other access class (indices, partial sums, MLP
activations, framework bookkeeping) as mostly cache-resident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.config.models import DLRMConfig
from repro.config.system import CPUConfig
from repro.errors import SimulationError
from repro.memsys.address import cache_lines_for_vector
from repro.memsys.stats import CacheStats, MemoryTrafficStats


def memory_level_parallelism_bandwidth(
    outstanding_lines: float, line_bytes: float, average_latency_s: float
) -> float:
    """Little's-law bandwidth bound: ``P * line / latency``."""
    if outstanding_lines <= 0 or line_bytes <= 0 or average_latency_s <= 0:
        raise SimulationError(
            "outstanding_lines, line_bytes and average_latency_s must be positive"
        )
    return outstanding_lines * line_bytes / average_latency_s


@lru_cache(maxsize=4096)
def expected_unique_fraction(population: int, draws: int) -> float:
    """Expected fraction of draws that touch a not-yet-seen item.

    For ``draws`` uniform draws over ``population`` items, the expected number
    of distinct items is ``population * (1 - (1 - 1/population)**draws)``;
    dividing by ``draws`` gives the fraction of draws that are "first
    touches".  Embedding gathers within one batch reuse a row only when the
    same row ID is drawn twice, so this factor scales the miss count.
    Memoized (bounded): the CPU-only and CPU-GPU backends price the same
    ``(rows, lookups)`` pairs for every (model, batch) of a sweep.
    """
    if population <= 0:
        raise SimulationError(f"population must be positive, got {population}")
    if draws <= 0:
        return 1.0
    if population == 1:
        # Only one distinct item exists, so exactly one draw is a first touch.
        return min(1.0, 1.0 / draws)
    distinct = population * (1.0 - math.exp(draws * math.log1p(-1.0 / population)))
    return min(1.0, distinct / draws)


@dataclass(frozen=True)
class AnalyticCacheModel:
    """Miss-probability model for one last-level cache.

    Attributes:
        llc_bytes: LLC capacity.
        line_bytes: Cache line size.
        usable_fraction: Fraction of the LLC effectively available to
            embedding rows (the rest holds code, indices, MLP weights and
            other data structures).
    """

    llc_bytes: int
    line_bytes: int = 64
    usable_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.llc_bytes <= 0:
            raise SimulationError(f"llc_bytes must be positive, got {self.llc_bytes}")
        if self.line_bytes <= 0:
            raise SimulationError(f"line_bytes must be positive, got {self.line_bytes}")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise SimulationError(
                f"usable_fraction must be in (0, 1], got {self.usable_fraction}"
            )

    def resident_probability(self, footprint_bytes: int) -> float:
        """Probability a random line of a data structure is LLC-resident.

        For structures smaller than the usable LLC the probability is 1 (the
        structure stays resident once warm); for larger structures it is the
        capacity ratio.
        """
        if footprint_bytes <= 0:
            return 1.0
        usable = self.llc_bytes * self.usable_fraction
        return min(1.0, usable / footprint_bytes)

    def gather_miss_probability(self, table_bytes: int) -> float:
        """Miss probability of one random embedding-line access."""
        return 1.0 - self.resident_probability(table_bytes)


@dataclass(frozen=True)
class EmbeddingAccessProfile:
    """LLC/instruction profile of the sparse embedding layer on the CPU.

    Calibration constants (defaults tuned against the paper's Figure 6):

    Attributes:
        other_accesses_per_lookup: LLC accesses per lookup from indices,
            offsets and partial-sum writebacks.
        other_miss_rate: Miss rate of those mostly-resident access classes.
        fixed_llc_accesses: LLC accesses per inference from framework code
            and operator dispatch, independent of batch size.
        fixed_instructions: Retired instructions per inference from the
            framework, independent of batch size.
        instructions_per_lookup: Retired instructions per embedding lookup,
            including the vectorized reduction and the PyTorch/Caffe2
            operator overhead.
    """

    cpu: CPUConfig
    other_accesses_per_lookup: float = 2.0
    other_miss_rate: float = 0.03
    fixed_llc_accesses: float = 20_000.0
    fixed_instructions: float = 2.0e6
    instructions_per_lookup: float = 300.0

    @cached_property
    def _llc(self) -> AnalyticCacheModel:
        """The LLC miss model, built once per profile."""
        return AnalyticCacheModel(
            llc_bytes=self.cpu.llc_bytes, line_bytes=self.cpu.cache_line_bytes
        )

    def compute(self, model: DLRMConfig, batch_size: int) -> MemoryTrafficStats:
        """Profile the embedding layer of ``model`` for one batch."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        cache = self._llc
        lines_per_vector = cache_lines_for_vector(
            model.embedding_dim * 4, self.cpu.cache_line_bytes
        )
        total_lookups = model.total_gathers_per_sample * batch_size

        # Gathered lines compete for the LLC with *all* tables of the model:
        # what matters for the residence probability is the aggregate
        # embedding footprint (128 MB - 3.2 GB for Table I), not the size of
        # one table.
        aggregate_miss_prob = cache.gather_miss_probability(model.embedding_table_bytes)
        gather_accesses = 0.0
        gather_misses = 0.0
        useful_bytes = 0.0
        # Equal tables in a row are priced once.  The integer sums scale
        # exactly (they stay far below 2**53); the float miss term is still
        # added once per table, in table order, so its rounding is unchanged.
        for count, table in model.table_runs:
            lookups = table.gathers * batch_size
            lines = lookups * lines_per_vector
            unique_fraction = expected_unique_fraction(table.num_rows, lookups)
            gather_accesses += lines * count
            table_misses = lines * unique_fraction * aggregate_miss_prob
            for _ in range(count):
                gather_misses += table_misses
            useful_bytes += lookups * table.row_bytes * count

        other_accesses = (
            self.fixed_llc_accesses + self.other_accesses_per_lookup * total_lookups
        )
        other_misses = other_accesses * self.other_miss_rate

        accesses = gather_accesses + other_accesses
        misses = gather_misses + other_misses
        instructions = (
            self.fixed_instructions + self.instructions_per_lookup * total_lookups
        )
        accesses_int = int(round(accesses))
        misses_int = min(int(round(misses)), accesses_int)
        llc = CacheStats(
            accesses=accesses_int,
            hits=accesses_int - misses_int,
            misses=misses_int,
        )
        return MemoryTrafficStats(
            useful_bytes=useful_bytes,
            transferred_bytes=misses * self.cpu.cache_line_bytes,
            llc=llc,
            instructions=instructions,
        )


@dataclass(frozen=True)
class MLPAccessProfile:
    """LLC/instruction profile of the dense MLP + interaction layers on the CPU.

    MLP weights for every Table I model fit comfortably in the tens-of-MB
    LLC, so the layer is compute-bound: the paper reports <20% LLC miss
    rates and sub-1 MPKI, which these defaults reproduce.
    """

    cpu: CPUConfig
    weight_refetch_miss_rate: float = 0.12
    activation_miss_rate: float = 0.02
    activation_lines_per_sample: float = 200.0
    fixed_llc_accesses: float = 6_000.0
    fixed_instructions: float = 5.0e5

    def compute(self, model: DLRMConfig, batch_size: int) -> MemoryTrafficStats:
        """Profile the dense layers of ``model`` for one batch."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        line_bytes = self.cpu.cache_line_bytes
        weight_lines = model.mlp_parameter_bytes / line_bytes
        # Weights stream out of the LLC once per batch tile; activations are
        # produced and consumed within the private caches most of the time.
        weight_accesses = weight_lines * max(1.0, math.sqrt(batch_size))
        activation_accesses = self.activation_lines_per_sample * batch_size
        accesses = weight_accesses + activation_accesses + self.fixed_llc_accesses
        misses = (
            weight_accesses * self.weight_refetch_miss_rate
            + activation_accesses * self.activation_miss_rate
            + self.fixed_llc_accesses * 0.05
        )
        flops = model.total_dense_flops_per_sample() * batch_size
        instructions = self.fixed_instructions + flops * self.cpu.instructions_per_flop
        accesses_int = int(round(accesses))
        misses_int = min(int(round(misses)), accesses_int)
        llc = CacheStats(
            accesses=accesses_int,
            hits=accesses_int - misses_int,
            misses=misses_int,
        )
        return MemoryTrafficStats(
            useful_bytes=float(model.mlp_parameter_bytes),
            transferred_bytes=misses * line_bytes,
            llc=llc,
            instructions=instructions,
        )
