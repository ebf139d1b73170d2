"""End-to-end CPU-only inference model (the paper's baseline design point)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.backends.base import BackendCapabilities
from repro.backends.builtin import CPU_CAPABILITIES
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.cpu.embedding_exec import EmbeddingExecutionModel
from repro.cpu.gemm import CPUGemmModel
from repro.errors import SimulationError
from repro.memsys.analytic import MLPAccessProfile
from repro.results import InferenceResult, LatencyBreakdown

@dataclass
class CPUOnlyRunner:
    """Produces :class:`~repro.results.InferenceResult` for the CPU-only system.

    The backend registry builds this class for ``"cpu"``;
    ``repro.backends.get_backend("cpu", system)`` is the name-based way to
    obtain one.

    Attributes:
        system: Hardware configuration bundle (only the CPU, memory and power
            portions are used).
        other_fixed_s: Per-inference latency outside the embedding and dense
            layers (input marshalling, sigmoid post-processing, framework
            bookkeeping) — the "Other" slice of Figure 5.
        other_per_sample_s: Batch-proportional part of that overhead.
    """

    system: SystemConfig
    other_fixed_s: float = 12.0e-6
    other_per_sample_s: float = 0.15e-6
    embedding_model: EmbeddingExecutionModel = field(default=None)  # type: ignore[assignment]
    gemm_model: CPUGemmModel = field(default=None)  # type: ignore[assignment]
    mlp_profile: Optional[MLPAccessProfile] = None

    def __post_init__(self) -> None:
        if self.other_fixed_s < 0 or self.other_per_sample_s < 0:
            raise SimulationError("CPU 'Other' overheads must be non-negative")
        if self.embedding_model is None:
            self.embedding_model = EmbeddingExecutionModel(
                cpu=self.system.cpu, memory=self.system.memory
            )
        if self.gemm_model is None:
            self.gemm_model = CPUGemmModel(cpu=self.system.cpu)
        if self.mlp_profile is None:
            self.mlp_profile = MLPAccessProfile(cpu=self.system.cpu)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Backend-registry key of this design point."""
        return "cpu"

    @property
    def design_point(self) -> str:
        return "CPU-only"

    @property
    def capabilities(self) -> BackendCapabilities:
        return CPU_CAPABILITIES

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        """Model one inference batch end to end on the CPU-only system."""
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")

        embedding = self.embedding_model.estimate(model, batch_size)
        dense = self.gemm_model.estimate_model(model, batch_size)
        other_s = self.other_fixed_s + self.other_per_sample_s * batch_size

        breakdown = LatencyBreakdown()
        breakdown.add("EMB", embedding.latency_s)
        breakdown.add("MLP", dense.latency_s)
        breakdown.add("Other", other_s)

        mlp_traffic = self.mlp_profile.compute(model, batch_size)
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=breakdown,
            embedding_traffic=embedding.traffic,
            mlp_traffic=mlp_traffic,
            power_watts=self.system.power.cpu_only_watts,
            extra={
                "embedding_software_s": embedding.software_s,
                "embedding_memory_s": embedding.memory_s,
                "embedding_dispatch_s": embedding.dispatch_s,
                "gemm_efficiency": dense.efficiency,
                "outstanding_misses": embedding.outstanding_misses,
            },
        )

    # ------------------------------------------------------------------
    def effective_embedding_throughput(self, model: DLRMConfig, batch_size: int) -> float:
        """Effective memory throughput of the embedding stage (Figure 7)."""
        return self.embedding_model.effective_throughput(model, batch_size)
