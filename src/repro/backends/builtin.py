"""Registrations for the paper's three design points.

The registry imports this module on its first lookup, in every process.
Each factory imports its runner module only when it first builds that
backend, so registering the three (and ``repro list-backends``, which reads
only this metadata) loads no device model.  Each backend's capabilities are
stated here once; the runner classes report them from here.
"""

from __future__ import annotations

from importlib import import_module

from repro.backends.base import BackendCapabilities
from repro.backends.registry import BackendFactory, register_backend

#: What the CPU-only backend reports (registered as ``"cpu"``).
CPU_CAPABILITIES = BackendCapabilities(
    uses_accelerator=False,
    offloads_embeddings=False,
    # A CPU replica is traffic-ready once the embedding tables are paged in.
    provision_warmup_s=2e-3,
)

#: What the CPU-GPU backend reports (registered as ``"cpu-gpu"``).
CPU_GPU_CAPABILITIES = BackendCapabilities(
    uses_accelerator=True,
    offloads_embeddings=False,
    # CUDA context + weight upload over PCIe before the first batch.
    provision_warmup_s=5e-3,
)

#: What the Centaur backend reports (registered as ``"centaur"``).
CENTAUR_CAPABILITIES = BackendCapabilities(
    uses_accelerator=True,
    offloads_embeddings=True,
    # FPGA partial reconfiguration dominates Centaur's commission time.
    provision_warmup_s=10e-3,
)


def _runner(module: str, cls: str) -> BackendFactory:
    """A factory building ``module.cls(system)``; imports ``module`` on first use."""

    def build(system):
        return getattr(import_module(module), cls)(system)

    return build


register_backend(
    "cpu",
    _runner("repro.cpu.cpu_runner", "CPUOnlyRunner"),
    design_point="CPU-only",
    description="CPU-only baseline (Broadwell Xeon, all layers in software)",
    aliases=("cpu-only", "cpuonly"),
    capabilities=CPU_CAPABILITIES,
)

register_backend(
    "cpu-gpu",
    _runner("repro.gpu.gpu_runner", "CPUGPURunner"),
    design_point="CPU-GPU",
    description="CPU gathers + discrete GPU dense layers over PCIe (DGX-1 V100)",
    aliases=("cpugpu", "gpu"),
    capabilities=CPU_GPU_CAPABILITIES,
)

register_backend(
    "centaur",
    _runner("repro.core.centaur", "CentaurRunner"),
    design_point="Centaur",
    description="Chiplet FPGA accelerator: EB-Streamer gathers + dense complex",
    aliases=("fpga",),
    capabilities=CENTAUR_CAPABILITIES,
)
