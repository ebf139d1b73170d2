"""EB-Streamer: the sparse accelerator complex of Centaur.

The EB-Streamer couples the base-pointer registers, the sparse-index SRAM,
the embedding gather unit and the embedding reduction unit to stream
embedding vectors out of CPU memory and reduce them on the fly.

Three views of the same hardware are provided:

* :meth:`EBStreamer.gather_and_reduce` — the *functional* path: actually
  reads vectors from :class:`~repro.core.mmio.HostMemory` via generated
  addresses and reduces them, producing numerically identical results to the
  software ``SparseLengthsSum``.
* :meth:`EBStreamer.estimate` — the *analytic* timing path used by the
  benchmark harness (index fetch + gather stream over the chiplet link).
* :meth:`EBStreamer.simulate` — an *event-driven* timing path that issues
  line requests against link credits and a bandwidth resource; it should
  agree with the analytic path within a few percent and exists as an
  internal cross-check (and for studying burstiness effects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.config.models import DLRMConfig
from repro.config.system import FPGAConfig, LinkConfig
from repro.core.link import ChipletLink
from repro.core.reduction import EmbeddingReductionUnit
from repro.core.sram import SRAMBuffer
from repro.errors import CapacityError, SimulationError
from repro.memsys.address import cache_lines_for_vector

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.mmio import HostMemory
    from repro.core.registers import BasePointerRegisters
    from repro.workloads.traces import SparseTrace


@dataclass(frozen=True)
class EBStreamerEstimate:
    """Timing decomposition of the sparse accelerator for one batch."""

    index_fetch_s: float
    gather_s: float
    reduction_s: float
    total_lookups: int
    total_lines: int
    useful_bytes: float
    sustained_gather_bandwidth: float

    @property
    def embedding_stage_s(self) -> float:
        """Latency of the EMB stage (gathers overlap reductions)."""
        return max(self.gather_s, self.reduction_s)

    @property
    def effective_throughput(self) -> float:
        """Useful gathered bytes per second over the EMB stage."""
        if self.embedding_stage_s == 0:
            return 0.0
        return self.useful_bytes / self.embedding_stage_s


class EBStreamer:
    """The sparse accelerator complex (BPregs + index SRAM + EB-GU + EB-RU).

    Only a streamer wired to ``host_memory`` runs the functional path, so
    only it builds (and imports) the base-pointer registers, the gather
    unit and the IOMMU; the timing paths need none of them.
    """

    def __init__(
        self,
        fpga: FPGAConfig,
        link_config: LinkConfig,
        embedding_dim: int = 32,
        registers: Optional[BasePointerRegisters] = None,
        host_memory: Optional[HostMemory] = None,
    ):
        self.fpga = fpga
        self.link = ChipletLink(link_config)
        self.registers = registers
        self.host_memory = host_memory
        self.embedding_dim = embedding_dim
        # The sparse-index SRAM holds 32-bit row IDs.
        self.index_sram = SRAMBuffer(
            name="SRAM_sparseID", capacity_bytes=fpga.sparse_index_sram_entries * 4
        )
        self.reduction_unit = EmbeddingReductionUnit(
            embedding_dim=embedding_dim,
            num_lanes=fpga.reduction_lanes,
            frequency_hz=fpga.frequency_hz,
        )
        self.gather_unit = self.iommu = None
        if host_memory is not None:
            from repro.core.gather import EmbeddingGatherUnit
            from repro.core.mmio import IOMMU
            from repro.core.registers import BasePointerRegisters

            if registers is None:
                self.registers = BasePointerRegisters()
            self.gather_unit = EmbeddingGatherUnit(self.registers, self.index_sram)
            self.iommu = IOMMU()

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def gather_and_reduce(
        self, table_names: Sequence[str], traces: Sequence[SparseTrace]
    ) -> np.ndarray:
        """Gather and reduce embeddings for every table of one batch.

        Args:
            table_names: Names under which the tables' base pointers were
                written into the BPregs (``"table/<name>"``).
            traces: One sparse trace per table (same order).

        Returns:
            Array of shape ``[batch, num_tables, embedding_dim]`` numerically
            matching the software ``SparseLengthsSum`` path.
        """
        if self.host_memory is None:
            raise SimulationError(
                "a HostMemory instance is required for functional gather_and_reduce()"
            )
        if len(table_names) != len(traces):
            raise SimulationError(
                f"got {len(table_names)} table names but {len(traces)} traces"
            )
        batch_sizes = {trace.batch_size for trace in traces}
        if len(batch_sizes) != 1:
            raise SimulationError(f"traces disagree on batch size: {sorted(batch_sizes)}")
        batch_size = batch_sizes.pop()
        row_bytes = self.embedding_dim * 4

        reduced: List[np.ndarray] = []
        for table_name, trace in zip(table_names, traces):
            self._check_index_capacity(trace.total_lookups)
            self.gather_unit.load_indices(table_name, trace.indices, trace.offsets)
            self.reduction_unit.begin(batch_size)
            for request in self.gather_unit.generate_requests(table_name, row_bytes):
                physical, _ = self.iommu.translate(request.address)
                vector = self.host_memory.read(physical, request.num_bytes)
                self.reduction_unit.accumulate(request.sample_index, vector)
            reduced.append(self.reduction_unit.result())
            # Per-inference index storage is transient.
            self.index_sram.discard(f"{table_name}/indices")
            self.index_sram.discard(f"{table_name}/offsets")
        return np.stack(reduced, axis=1)

    def _check_index_capacity(self, num_lookups: int) -> None:
        if num_lookups * 4 > self.index_sram.capacity_bytes:
            raise CapacityError(
                f"sparse-index SRAM ({self.index_sram.capacity_bytes} bytes) cannot hold "
                f"{num_lookups} indices for one table; split the batch"
            )

    # ------------------------------------------------------------------
    # Analytic timing path
    # ------------------------------------------------------------------
    def estimate(self, model: DLRMConfig, batch_size: int) -> EBStreamerEstimate:
        """Analytic timing of index fetch + gathers + reductions for one batch."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        lines_per_vector = cache_lines_for_vector(
            model.embedding_dim * 4, self.link.config.request_granularity_bytes
        )
        total_lookups = model.total_gathers_per_sample * batch_size
        total_lines = total_lookups * lines_per_vector
        useful_bytes = float(model.embedding_bytes_per_sample() * batch_size)

        # Index fetch: the sparse index array streams in as one bulk read.
        index_bytes = model.sparse_index_bytes_per_sample() * batch_size
        index_fetch = self.link.bulk_transfer(index_bytes)

        # Gather stream: bounded by link credits and the index SRAM depth.
        outstanding = min(
            self.link.config.max_outstanding_requests,
            self.fpga.sparse_index_sram_entries,
            max(1, total_lines),
        )
        gather = self.link.gather_stream(total_lines, outstanding)

        reduction_s = self.reduction_unit.reduction_time_s(total_lookups)
        return EBStreamerEstimate(
            index_fetch_s=index_fetch.latency_s,
            gather_s=gather.latency_s,
            reduction_s=reduction_s,
            total_lookups=total_lookups,
            total_lines=total_lines,
            useful_bytes=useful_bytes,
            sustained_gather_bandwidth=gather.sustained_bandwidth,
        )

    # ------------------------------------------------------------------
    # Event-driven timing path
    # ------------------------------------------------------------------
    def simulate(
        self, model: DLRMConfig, batch_size: int, max_requests: int = 200_000
    ) -> Dict[str, float]:
        """Event-driven gather simulation (cross-check of :meth:`estimate`).

        Individual line requests acquire a link credit, spend one link
        round-trip in flight, and then occupy the link's data-return
        bandwidth for their transfer time.  Returns a dict with the simulated
        gather time and achieved bandwidth.

        Args:
            model: Workload configuration.
            batch_size: Input batch size.
            max_requests: Safety cap on simulated line requests; larger
                gather streams are scaled from a simulated prefix (the stream
                is statistically uniform, so the prefix rate is representative).
        """
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        lines_per_vector = cache_lines_for_vector(
            model.embedding_dim * 4, self.link.config.request_granularity_bytes
        )
        total_lines = model.total_gathers_per_sample * batch_size * lines_per_vector
        simulated_lines = min(total_lines, max_requests)
        if simulated_lines == 0:
            return {"gather_s": 0.0, "achieved_bandwidth": 0.0, "simulated_lines": 0}
        from repro.sim.engine import Simulator
        from repro.sim.resources import BandwidthResource, TokenPool

        simulator = Simulator()
        credits = TokenPool(self.link.config.max_outstanding_requests, name="link-credits")
        # The return path streams data at the gather-path efficiency cap.
        return_path = BandwidthResource(
            self.link.peak_gather_bandwidth, name="cpu->fpga data return"
        )
        line_bytes = self.link.config.request_granularity_bytes
        latency = self.link.config.latency_s
        state = {"issued": 0, "completed": 0, "finish_time": 0.0}

        def issue_next() -> None:
            while state["issued"] < simulated_lines and credits.try_acquire():
                state["issued"] += 1
                # Request flies to the CPU, is serviced, and the response
                # occupies the return path for its streaming time.
                def on_response() -> None:
                    completion = return_path.request(simulator.now, line_bytes)
                    simulator.schedule_at(completion, lambda: on_data_landed())

                def on_data_landed() -> None:
                    state["completed"] += 1
                    state["finish_time"] = simulator.now
                    credits.release()
                    issue_next()

                simulator.schedule(latency, on_response)

        issue_next()
        simulator.run(max_events=20 * max_requests + 1000)
        if state["completed"] != simulated_lines:
            raise SimulationError(
                f"gather simulation finished with {state['completed']} of "
                f"{simulated_lines} lines completed"
            )
        simulated_time = state["finish_time"]
        achieved = simulated_lines * line_bytes / simulated_time if simulated_time else 0.0
        # Scale the simulated prefix up to the full stream at the achieved rate.
        if total_lines > simulated_lines and achieved > 0:
            gather_s = latency + total_lines * line_bytes / achieved
        else:
            gather_s = simulated_time
        return {
            "gather_s": gather_s,
            "achieved_bandwidth": achieved,
            "simulated_lines": float(simulated_lines),
        }
