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

from repro.core.registers import BasePointerRegisters
from repro.core.sram import SRAMBuffer
from repro.core.link import ChipletLink, LinkTransferEstimate
from repro.core.mmio import HostMemory, IOMMU, MMIOInterface
from repro.core.gather import EmbeddingGatherUnit, GatherRequest
from repro.core.reduction import EmbeddingReductionUnit
from repro.core.eb_streamer import EBStreamer, EBStreamerEstimate
from repro.core.pe import ProcessingEngine
from repro.core.mlp_unit import MLPUnit
from repro.core.interaction_unit import FeatureInteractionUnit
from repro.core.sigmoid_unit import SigmoidUnit
from repro.core.dense_complex import DenseAcceleratorComplex, DenseTimingEstimate
from repro.core.resources import FPGAResourceModel, ModuleResources, ResourceReport
from repro.core.centaur import CentaurDevice, CentaurRunner

__all__ = [
    "BasePointerRegisters",
    "SRAMBuffer",
    "ChipletLink",
    "LinkTransferEstimate",
    "HostMemory",
    "IOMMU",
    "MMIOInterface",
    "EmbeddingGatherUnit",
    "GatherRequest",
    "EmbeddingReductionUnit",
    "EBStreamer",
    "EBStreamerEstimate",
    "ProcessingEngine",
    "MLPUnit",
    "FeatureInteractionUnit",
    "SigmoidUnit",
    "DenseAcceleratorComplex",
    "DenseTimingEstimate",
    "FPGAResourceModel",
    "ModuleResources",
    "ResourceReport",
    "CentaurDevice",
    "CentaurRunner",
]
