"""Top-level Centaur device: functional inference and the performance runner.

:class:`CentaurDevice` wires the sparse and dense accelerator complexes
together with the host-memory/MMIO software interface and runs real batches
— its outputs are numerically interchangeable with the pure-software
:class:`~repro.dlrm.model.DLRM`, which is the core correctness claim of the
reproduction.

:class:`CentaurRunner` is the performance counterpart: it produces the
IDX/EMB/DNF/MLP/Other latency breakdown of the paper's Figure 14 and the
gather-throughput numbers of Figure 13 for arbitrary Table I configurations
without touching real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.backends.base import BackendCapabilities
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.core.dense_complex import DenseAcceleratorComplex
from repro.core.eb_streamer import EBStreamer
from repro.core.mmio import HostMemory, MMIOInterface
from repro.core.registers import BasePointerRegisters
from repro.dlrm.model import DLRM, DLRMOutput
from repro.workloads.traces import DLRMBatch
from repro.errors import SimulationError
from repro.memsys.stats import CacheStats, MemoryTrafficStats
from repro.results import InferenceResult, LatencyBreakdown


class CentaurDevice:
    """A functional Centaur accelerator bound to one DLRM model instance.

    Args:
        dlrm: The model whose tables/weights the device will serve.  The
            embedding tables stay in (host) CPU memory; only MLP weights are
            uploaded to on-chip SRAM, exactly as the paper describes.
        system: Hardware configuration (FPGA + link portions are used).
        sigmoid_mode: Fidelity of the final sigmoid (``"exact"``/``"piecewise"``).
    """

    def __init__(self, dlrm: DLRM, system: SystemConfig, sigmoid_mode: str = "exact"):
        self.dlrm = dlrm
        self.system = system
        self.host_memory = HostMemory()
        self.registers = BasePointerRegisters()
        self.mmio = MMIOInterface(self.registers, system.link.mmio_write_latency_s)
        self.table_names: List[str] = []
        self.setup_latency_s = 0.0

        # Register the embedding tables in shared host memory and hand their
        # base pointers to the FPGA over MMIO (boot-time, done once).
        for index, table in enumerate(dlrm.embeddings.tables):
            name = f"table{index}"
            region = self.host_memory.register(name, table)
            self.setup_latency_s += self.mmio.write_base_pointer(
                f"table/{name}", region.base_address
            )
            self.table_names.append(name)

        # Result buffer in host memory for the FPGA->CPU final write.  Sized
        # for the common case at boot; :meth:`infer` grows it on demand.
        self._output_capacity = 4096
        self.output_regrows = 0
        output_region = self.host_memory.register(
            "output", np.zeros(self._output_capacity, dtype=np.float32)
        )
        self.setup_latency_s += self.mmio.write_base_pointer(
            "output", output_region.base_address
        )

        self.eb_streamer = EBStreamer(
            fpga=system.fpga,
            link_config=system.link,
            embedding_dim=dlrm.config.embedding_dim,
            registers=self.registers,
            host_memory=self.host_memory,
        )
        self.dense_complex = DenseAcceleratorComplex(
            fpga=system.fpga, sigmoid_mode=sigmoid_mode
        )
        self.dense_complex.load_weights(dlrm.bottom_mlp, dlrm.top_mlp)

    # ------------------------------------------------------------------
    @property
    def config(self) -> DLRMConfig:
        return self.dlrm.config

    def infer(self, batch: DLRMBatch) -> DLRMOutput:
        """Run one batch through the accelerator's functional datapath."""
        if batch.num_tables != self.config.num_tables:
            raise SimulationError(
                f"batch has {batch.num_tables} sparse traces but the model has "
                f"{self.config.num_tables} tables"
            )
        if batch.batch_size > self._output_capacity:
            self._grow_output_buffer(batch.batch_size)
        reduced = self.eb_streamer.gather_and_reduce(self.table_names, batch.sparse_traces)
        probabilities, logits = self.dense_complex.forward(batch.dense_features, reduced)

        # Final FPGA->CPU result copy into the registered output region.
        output_base = self.registers.read("output")
        self.host_memory.write(output_base, probabilities.astype(np.float32))

        bottom_out = self.dense_complex.mlp_unit.run_mlp(
            self.dlrm.bottom_mlp, batch.dense_features
        )
        interaction = self.dense_complex.interaction_unit.forward(bottom_out, reduced)
        return DLRMOutput(
            probabilities=probabilities,
            logits=logits,
            reduced_embeddings=reduced,
            bottom_mlp_output=bottom_out,
            interaction_output=interaction,
        )

    def _grow_output_buffer(self, min_samples: int) -> None:
        """Re-register a larger host output region for an oversized batch.

        The host driver drops the old region, registers one grown to the
        next power of two covering the batch, and rewrites the FPGA's
        ``output`` base pointer over MMIO — that rewrite is the latency the
        resize charges (accumulated into :attr:`setup_latency_s`, exactly
        like the boot-time registration it repeats).
        """
        capacity = self._output_capacity
        while capacity < min_samples:
            capacity *= 2
        self.host_memory.unregister("output")
        region = self.host_memory.register(
            "output", np.zeros(capacity, dtype=np.float32)
        )
        self.setup_latency_s += self.mmio.write_base_pointer(
            "output", region.base_address
        )
        self._output_capacity = capacity
        self.output_regrows += 1

    @property
    def output_capacity(self) -> int:
        """Samples the registered host output region can currently hold."""
        return self._output_capacity

    def predict(self, batch: DLRMBatch) -> np.ndarray:
        """Convenience wrapper returning only the event probabilities."""
        return self.infer(batch).probabilities


#: What the Centaur backend reports (registered as ``"centaur"``).
CENTAUR_CAPABILITIES = BackendCapabilities(
    reports_embedding_throughput=True,
    reports_mlp_traffic=False,
    uses_accelerator=True,
    offloads_embeddings=True,
    stages=("IDX", "EMB", "DNF", "MLP", "Other"),
    # FPGA partial reconfiguration dominates Centaur's commission time.
    provision_warmup_s=10e-3,
)


@dataclass
class CentaurRunner:
    """Performance model of Centaur producing :class:`InferenceResult`.

    The backend registry builds this class for ``"centaur"``;
    ``repro.backends.get_backend("centaur", system)`` is the name-based way
    to obtain one.

    Attributes:
        system: Hardware configuration bundle.
        other_fixed_s: Per-inference orchestration overhead (MMIO doorbell,
            base-pointer refresh for the per-inference inputs, final result
            interrupt) — the "Other" slice of Figure 14.
    """

    system: SystemConfig
    other_fixed_s: float = 3.0e-6
    sigmoid_mode: str = "exact"
    _streamer: EBStreamer = field(default=None, repr=False)  # type: ignore[assignment]
    _dense: DenseAcceleratorComplex = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.other_fixed_s < 0:
            raise SimulationError("other_fixed_s must be non-negative")
        if self._streamer is None:
            self._streamer = EBStreamer(fpga=self.system.fpga, link_config=self.system.link)
        if self._dense is None:
            self._dense = DenseAcceleratorComplex(
                fpga=self.system.fpga, sigmoid_mode=self.sigmoid_mode
            )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Backend-registry key of this design point."""
        return "centaur"

    @property
    def design_point(self) -> str:
        return "Centaur"

    @property
    def capabilities(self) -> BackendCapabilities:
        return CENTAUR_CAPABILITIES

    def energy(self, model: DLRMConfig, batch_size: int) -> float:
        """Energy in joules of one batch (power x latency)."""
        return self.run(model, batch_size).energy_joules

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        """Model one inference batch end to end on Centaur."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")

        streamer = self._streamer.estimate(model, batch_size)
        dense = self._dense.estimate(model, batch_size)

        # Dense-feature fetch (DNF) and final result write-back.
        dense_feature_bytes = model.dense_feature_bytes_per_sample() * batch_size
        link = self._streamer.link
        dnf = link.bulk_transfer(dense_feature_bytes)
        result_writeback = link.bulk_transfer(4 * batch_size)

        breakdown = LatencyBreakdown()
        breakdown.add("IDX", streamer.index_fetch_s)
        breakdown.add("EMB", streamer.embedding_stage_s)
        breakdown.add("DNF", dnf.latency_s)
        breakdown.add("MLP", dense.total_s)
        breakdown.add("Other", self.other_fixed_s + result_writeback.latency_s)

        embedding_traffic = MemoryTrafficStats(
            useful_bytes=streamer.useful_bytes,
            transferred_bytes=float(
                streamer.total_lines * self.system.link.request_granularity_bytes
            ),
            llc=CacheStats(),
            instructions=0.0,
        )
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=breakdown,
            embedding_traffic=embedding_traffic,
            mlp_traffic=None,
            power_watts=self.system.power.centaur_watts,
            extra={
                "gather_bandwidth": streamer.sustained_gather_bandwidth,
                "gather_s": streamer.gather_s,
                "reduction_s": streamer.reduction_s,
                "dense_bottom_s": dense.bottom_mlp_s,
                "dense_top_s": dense.top_mlp_s,
                "dense_interaction_s": dense.interaction_s,
            },
        )

    # ------------------------------------------------------------------
    def effective_embedding_throughput(self, model: DLRMConfig, batch_size: int) -> float:
        """Effective gather throughput of the EB-Streamer (Figure 13)."""
        return self._streamer.estimate(model, batch_size).effective_throughput
