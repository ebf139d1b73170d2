"""End-to-end model of the CPU-GPU design point.

Execution flow (Section V, "CPU-GPU [38]"):

1. The CPU gathers and reduces all embeddings (identical to CPU-only).
2. The reduced embeddings and dense features are copied to the GPU over PCIe.
3. The GPU runs the bottom MLP, feature interaction and top MLP.
4. The (tiny) result vector is copied back to the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import BackendCapabilities
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.cpu.embedding_exec import EmbeddingExecutionModel
from repro.errors import SimulationError
from repro.gpu.device import GPUDevice
from repro.gpu.pcie import PCIeLink
from repro.memsys.analytic import MLPAccessProfile
from repro.results import InferenceResult, LatencyBreakdown

#: What the CPU-GPU backend reports (registered as ``"cpu-gpu"``).
CPU_GPU_CAPABILITIES = BackendCapabilities(
    reports_embedding_throughput=True,
    reports_mlp_traffic=True,
    uses_accelerator=True,
    offloads_embeddings=False,
    stages=("EMB", "PCIe", "MLP", "Other"),
    # CUDA context + weight upload over PCIe before the first batch.
    provision_warmup_s=5e-3,
)


@dataclass
class CPUGPURunner:
    """Produces :class:`~repro.results.InferenceResult` for the CPU-GPU system.

    The backend registry builds this class for ``"cpu-gpu"``;
    ``repro.backends.get_backend("cpu-gpu", system)`` is the name-based way
    to obtain one.
    """

    system: SystemConfig
    other_fixed_s: float = 14.0e-6
    other_per_sample_s: float = 0.15e-6
    #: Driver/stream synchronization cost of handing a request to the GPU and
    #: waiting for its completion, on top of the raw PCIe transfer time.
    offload_sync_s: float = 60.0e-6
    embedding_model: EmbeddingExecutionModel = field(default=None)  # type: ignore[assignment]
    gpu_device: GPUDevice = field(default=None)  # type: ignore[assignment]
    pcie: PCIeLink = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.other_fixed_s < 0 or self.other_per_sample_s < 0:
            raise SimulationError("CPU-GPU 'Other' overheads must be non-negative")
        if self.embedding_model is None:
            self.embedding_model = EmbeddingExecutionModel(
                cpu=self.system.cpu, memory=self.system.memory
            )
        if self.gpu_device is None:
            self.gpu_device = GPUDevice(gpu=self.system.gpu)
        if self.pcie is None:
            self.pcie = PCIeLink(gpu=self.system.gpu)
        self._mlp_profile = MLPAccessProfile(cpu=self.system.cpu)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Backend-registry key of this design point."""
        return "cpu-gpu"

    @property
    def design_point(self) -> str:
        return "CPU-GPU"

    @property
    def capabilities(self) -> BackendCapabilities:
        return CPU_GPU_CAPABILITIES

    def energy(self, model: DLRMConfig, batch_size: int) -> float:
        """Energy in joules of one batch (power x latency)."""
        return self.run(model, batch_size).energy_joules

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        """Model one inference batch end to end on the CPU-GPU system."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")

        embedding = self.embedding_model.estimate(model, batch_size)

        # Host -> device: reduced embeddings (one vector per table per sample)
        # plus the dense features; device -> host: one probability per sample.
        reduced_bytes = model.num_tables * model.embedding_dim * 4 * batch_size
        dense_bytes = model.dense_feature_bytes_per_sample() * batch_size
        result_bytes = 4 * batch_size
        pcie_s = (
            self.pcie.round_trip(reduced_bytes + dense_bytes, result_bytes)
            + self.offload_sync_s
        )

        dense = self.gpu_device.estimate_model(model, batch_size)
        other_s = self.other_fixed_s + self.other_per_sample_s * batch_size

        breakdown = LatencyBreakdown()
        breakdown.add("EMB", embedding.latency_s)
        breakdown.add("PCIe", pcie_s)
        breakdown.add("MLP", dense.latency_s)
        breakdown.add("Other", other_s)

        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=breakdown,
            embedding_traffic=embedding.traffic,
            mlp_traffic=self._mlp_profile.compute(model, batch_size),
            power_watts=self.system.power.cpu_gpu_total_watts,
            extra={
                "pcie_bytes": reduced_bytes + dense_bytes + result_bytes,
                "gpu_efficiency": dense.efficiency,
                "gpu_launch_s": dense.launch_s,
            },
        )
