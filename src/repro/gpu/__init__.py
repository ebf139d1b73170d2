"""CPU-GPU design-point model (discrete GPU behind PCIe).

The paper's second baseline keeps the embedding tables in CPU memory (they
do not fit in GPU HBM), performs the gathers/reductions on the CPU exactly
like the CPU-only system, and then ships the reduced embeddings plus dense
features to a discrete GPU over PCIe for the dense MLP/interaction layers.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".pcie": ("PCIeLink", "TransferEstimate"),
        ".device": ("GPUDevice", "GPUGemmEstimate"),
        ".gpu_runner": ("CPUGPURunner",),
    },
)
