"""Trace-driven cross-validation of the CPU embedding-layer cache model.

The benchmark harness uses the closed-form
:class:`~repro.memsys.analytic.EmbeddingAccessProfile` because Table I
footprints (up to 3.2 GB) are too large to replay through a line-accurate
simulator.  This module provides the validation path: for *scaled-down*
models it replays the actual gather line stream through a
:class:`~repro.memsys.hierarchy.CacheHierarchy` slice and compares the
measured gather miss rate against the analytic prediction, so the analytic
constants stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config.models import DLRMConfig
from repro.config.system import CPUConfig
from repro.workloads.traces import DLRMBatch, TraceModel, UniformTrace, model_batch
from repro.errors import SimulationError
from repro.memsys.address import cache_lines_for_vector
from repro.memsys.analytic import AnalyticCacheModel, expected_unique_fraction
from repro.memsys.hierarchy import CacheHierarchy
from repro.memsys.stats import CacheStats


@dataclass(frozen=True)
class TraceDrivenProfile:
    """Measured vs predicted LLC behaviour of the embedding gather stream."""

    model_name: str
    batch_size: int
    lookups: int
    measured_llc: CacheStats
    predicted_miss_probability: float
    llc_slice_bytes: int

    @property
    def measured_miss_rate(self) -> float:
        return self.measured_llc.miss_rate

    @property
    def absolute_error(self) -> float:
        return abs(self.measured_miss_rate - self.predicted_miss_probability)


class TraceDrivenEmbeddingSimulator:
    """Replays embedding gather traces through a cache-hierarchy slice.

    The simulated hierarchy is a single-core slice (per-core L1/L2 plus a
    proportional share of the LLC), matching how one OpenMP worker sees the
    cache when the batch is processed in parallel.

    Args:
        cpu: CPU configuration providing cache geometry.
        llc_share: Fraction of the socket LLC visible to the replayed stream
            (1/num_cores models one worker of a fully loaded socket; 1.0
            models a single-threaded run owning the whole LLC).
    """

    def __init__(self, cpu: Optional[CPUConfig] = None, llc_share: Optional[float] = None):
        self.cpu = cpu if cpu is not None else CPUConfig()
        if llc_share is None:
            llc_share = 1.0 / self.cpu.num_cores
        if not 0.0 < llc_share <= 1.0:
            raise SimulationError(f"llc_share must be in (0, 1], got {llc_share}")
        self.llc_share = llc_share

    # ------------------------------------------------------------------
    def _build_hierarchy(self) -> CacheHierarchy:
        llc_slice = int(self.cpu.llc_bytes * self.llc_share)
        return CacheHierarchy.broadwell_like(
            l1_bytes=self.cpu.l1_bytes,
            l2_bytes=self.cpu.l2_bytes,
            llc_bytes=llc_slice,
            line_bytes=self.cpu.cache_line_bytes,
            llc_ways=self.cpu.llc_ways,
        )

    def _gather_lines(self, model: DLRMConfig, batch: DLRMBatch) -> np.ndarray:
        """Line addresses touched by every gather of the batch, in issue order."""
        lines_per_vector = cache_lines_for_vector(
            model.embedding_dim * 4, self.cpu.cache_line_bytes
        )
        table_base_line = 0
        all_lines = []
        for table, trace in zip(model.tables, batch.sparse_traces):
            row_lines = table.row_bytes // self.cpu.cache_line_bytes
            row_lines = max(row_lines, 1)
            first_lines = table_base_line + trace.indices * row_lines
            # Expand each gather into its consecutive lines (vector spans).
            expanded = (first_lines[:, None] + np.arange(lines_per_vector)[None, :]).reshape(-1)
            all_lines.append(expanded)
            table_base_line += -(-table.table_bytes // self.cpu.cache_line_bytes)
        return np.concatenate(all_lines) if all_lines else np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def profile(
        self,
        model: DLRMConfig,
        batch_size: int,
        trace: TraceModel = UniformTrace(),
        warmup_batches: int = 1,
        warm_tables: bool = True,
        max_warm_lines: int = 2_000_000,
    ) -> TraceDrivenProfile:
        """Replay gather traffic for ``model`` and measure the LLC miss rate.

        Args:
            model: A (scaled-down) DLRM configuration; keep the aggregate
                table footprint under a few hundred MB so the replay stays
                fast.
            batch_size: Inference batch size.
            trace: Sparse-index distribution (uniform by default); warm-up
                and measured batches draw from one ``default_rng(0)`` stream.
            warmup_batches: Batches replayed before measurement to warm the
                private levels, mirroring the paper's warmed-cache methodology.
            warm_tables: Pre-populate the LLC with one sweep over the table
                lines (up to ``max_warm_lines``) so the measurement reflects
                steady state rather than a cold cache — the condition both
                the paper's methodology and the analytic model assume.
            max_warm_lines: Cap on the warm sweep length.
        """
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        if warmup_batches < 0:
            raise SimulationError(f"warmup_batches must be non-negative, got {warmup_batches}")
        if max_warm_lines < 0:
            raise SimulationError(f"max_warm_lines must be non-negative, got {max_warm_lines}")
        rng = np.random.default_rng(0)
        hierarchy = self._build_hierarchy()

        if warm_tables:
            total_lines = sum(
                -(-table.table_bytes // self.cpu.cache_line_bytes) for table in model.tables
            )
            # Only the trailing `LLC capacity` worth of a sequential sweep can
            # stay resident under LRU, so warming more than that is wasted work.
            llc_lines = hierarchy.llc.capacity_bytes // self.cpu.cache_line_bytes
            warm_count = min(total_lines, max(2 * llc_lines, 1), max_warm_lines)
            hierarchy.llc.warm(range(total_lines - warm_count, total_lines))

        for _ in range(warmup_batches):
            warm_batch = model_batch(trace, rng, model, batch_size)
            for line in self._gather_lines(model, warm_batch):
                hierarchy.access(int(line))

        measured_batch = model_batch(trace, rng, model, batch_size)
        lines = self._gather_lines(model, measured_batch)
        before = hierarchy.llc.stats
        start = CacheStats(accesses=before.accesses, hits=before.hits, misses=before.misses)
        for line in lines:
            hierarchy.access(int(line))
        after = hierarchy.llc.stats
        measured = CacheStats(
            accesses=after.accesses - start.accesses,
            hits=after.hits - start.hits,
            misses=after.misses - start.misses,
        )

        predicted = self.predict_miss_probability(model, batch_size)
        return TraceDrivenProfile(
            model_name=model.name,
            batch_size=batch_size,
            lookups=measured_batch.total_lookups,
            measured_llc=measured,
            predicted_miss_probability=predicted,
            llc_slice_bytes=int(self.cpu.llc_bytes * self.llc_share),
        )

    # ------------------------------------------------------------------
    def predict_miss_probability(self, model: DLRMConfig, batch_size: int) -> float:
        """Analytic miss probability of the gather stream for the same slice."""
        cache = AnalyticCacheModel(
            llc_bytes=int(self.cpu.llc_bytes * self.llc_share),
            line_bytes=self.cpu.cache_line_bytes,
        )
        aggregate = cache.gather_miss_probability(model.embedding_table_bytes)
        # Weight by the intra-batch first-touch fraction, as the analytic
        # embedding profile does.
        total = 0.0
        lookups = 0
        for table in model.tables:
            table_lookups = table.gathers * batch_size
            unique = expected_unique_fraction(table.num_rows, table_lookups)
            total += table_lookups * unique * aggregate
            lookups += table_lookups
        return total / lookups if lookups else 0.0
