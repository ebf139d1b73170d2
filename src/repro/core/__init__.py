"""The Centaur accelerator: the paper's primary contribution.

The package models both *function* and *performance* of the chiplet-based
hybrid sparse-dense accelerator:

* the sparse accelerator complex (``EB-Streamer``): base-pointer registers,
  sparse-index SRAM, embedding gather unit and on-the-fly reduction unit,
* the dense accelerator complex: a 4x4 processing-engine array running MLPs
  on 32x32 tiles (output-stationary when the output tiles fill the array,
  K-split below that), dedicated feature-interaction PEs, a sigmoid unit and
  the SRAM buffers that feed them,
* the CPU<->FPGA chiplet link (cache-coherent path, optional cache-bypass
  path), the MMIO/IOMMU software interface and host-memory model,
* an FPGA resource estimator reproducing Tables II and III,
* :class:`~repro.core.centaur.CentaurDevice` (functional inference, bit-for-
  bit comparable to the pure-software DLRM) and
  :class:`~repro.core.centaur.CentaurRunner` (latency/energy model producing
  the Figure 13-15 results).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".registers": ("BasePointerRegisters",),
        ".sram": ("SRAMBuffer",),
        ".link": ("ChipletLink", "LinkTransferEstimate"),
        ".mmio": ("HostMemory", "IOMMU", "MMIOInterface"),
        ".gather": ("EmbeddingGatherUnit", "GatherRequest"),
        ".reduction": ("EmbeddingReductionUnit",),
        ".eb_streamer": ("EBStreamer", "EBStreamerEstimate"),
        ".pe": ("ProcessingEngine",),
        ".mlp_unit": ("MLPUnit",),
        ".interaction_unit": ("FeatureInteractionUnit",),
        ".sigmoid_unit": ("SigmoidUnit",),
        ".dense_complex": ("DenseAcceleratorComplex", "DenseTimingEstimate"),
        ".resources": ("FPGAResourceModel", "ModuleResources", "ResourceReport"),
        ".centaur": ("CentaurDevice", "CentaurRunner"),
    },
)
