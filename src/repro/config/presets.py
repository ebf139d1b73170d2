"""Hardware and workload presets matching the paper's evaluation setup.

Hardware presets mirror Section V (Methodology): Intel HARPv2 with a
Broadwell Xeon E5-2680v4 and an Altera Arria 10 GX1150, a quad-channel DDR4
memory system with 77 GB/s of peak bandwidth, a 28.8 GB/s (theoretical)
CPU<->FPGA link, and an NVIDIA DGX-1 V100 for the ``CPU-GPU`` design point.

Workload presets mirror Table I.  The paper does not publish MLP layer
shapes; how far the sizes of the widths chosen below are from Table I's is
recorded in :mod:`repro.analysis.paper`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config.models import DLRMConfig, homogeneous_dlrm
from repro.config.system import (
    CPUConfig,
    FPGAConfig,
    FPGAFabricConfig,
    GPUConfig,
    LinkConfig,
    MemoryConfig,
    PowerConfig,
    SystemConfig,
)

# ---------------------------------------------------------------------------
# Hardware presets (Section V)
# ---------------------------------------------------------------------------

#: Host CPU of the HARPv2 package.
BROADWELL_XEON = CPUConfig()

#: Quad-channel DDR4 memory system with 77 GB/s of peak bandwidth.
DDR4_QUAD_CHANNEL = MemoryConfig()

#: HARPv2 CPU<->FPGA communication: two PCIe links plus one UPI link.
HARPV2_LINK = LinkConfig()

#: Raw fabric capacity of the Altera Arria 10 GX1150.
ARRIA10_GX1150 = FPGAFabricConfig()

#: Default Centaur accelerator configuration (4x4 MLP PEs + 4 interaction PEs).
CENTAUR_FPGA = FPGAConfig()

#: The DGX-1 V100 used for the CPU-GPU design point.
DGX1_V100 = GPUConfig()

#: Table IV power figures.
PAPER_POWER = PowerConfig()

#: The full evaluation platform.
HARPV2_SYSTEM = SystemConfig(
    cpu=BROADWELL_XEON,
    memory=DDR4_QUAD_CHANNEL,
    link=HARPV2_LINK,
    fpga=CENTAUR_FPGA,
    gpu=DGX1_V100,
    power=PAPER_POWER,
)

# ---------------------------------------------------------------------------
# Workload presets (Table I)
# ---------------------------------------------------------------------------

#: Rows per 25.6 MB table (32-wide fp32 vectors -> 128 bytes per row).
_ROWS_SMALL_TABLE = 200_000
#: Rows per 64 MB table, used by DLRM(5).
_ROWS_LARGE_TABLE = 500_000

DLRM1: DLRMConfig = homogeneous_dlrm(
    name="DLRM(1)",
    num_tables=5,
    rows_per_table=_ROWS_SMALL_TABLE,
    gathers_per_table=20,
)

DLRM2: DLRMConfig = homogeneous_dlrm(
    name="DLRM(2)",
    num_tables=50,
    rows_per_table=_ROWS_SMALL_TABLE,
    gathers_per_table=20,
)

DLRM3: DLRMConfig = homogeneous_dlrm(
    name="DLRM(3)",
    num_tables=5,
    rows_per_table=_ROWS_SMALL_TABLE,
    gathers_per_table=80,
)

DLRM4: DLRMConfig = homogeneous_dlrm(
    name="DLRM(4)",
    num_tables=50,
    rows_per_table=_ROWS_SMALL_TABLE,
    gathers_per_table=80,
)

DLRM5: DLRMConfig = homogeneous_dlrm(
    name="DLRM(5)",
    num_tables=50,
    rows_per_table=_ROWS_LARGE_TABLE,
    gathers_per_table=80,
)

DLRM6: DLRMConfig = homogeneous_dlrm(
    name="DLRM(6)",
    num_tables=5,
    rows_per_table=_ROWS_SMALL_TABLE,
    gathers_per_table=2,
    bottom_hidden=(320, 160),
    top_hidden=(320, 160),
)

#: The six Table I models in paper order.
PAPER_MODELS: Tuple[DLRMConfig, ...] = (DLRM1, DLRM2, DLRM3, DLRM4, DLRM5, DLRM6)

#: Input batch sizes swept throughout the evaluation (Figures 5-7 and 13-15).
PAPER_BATCH_SIZES: Tuple[int, ...] = (1, 4, 16, 32, 64, 128)

_PRESETS_BY_NAME: Dict[str, DLRMConfig] = {model.name: model for model in PAPER_MODELS}
_PRESETS_BY_INDEX: Dict[int, DLRMConfig] = {
    index + 1: model for index, model in enumerate(PAPER_MODELS)
}


def dlrm_preset(which: "int | str") -> DLRMConfig:
    """Look up one of the six Table I models by index (1-6) or name.

    Args:
        which: ``3`` or ``"DLRM(3)"`` for the third configuration.

    Returns:
        The corresponding :class:`~repro.config.models.DLRMConfig`.

    Raises:
        KeyError: If the index/name does not correspond to a Table I model.
    """
    if isinstance(which, int):
        if which not in _PRESETS_BY_INDEX:
            raise KeyError(
                f"DLRM preset index must be in 1..{len(PAPER_MODELS)}, got {which}"
            )
        return _PRESETS_BY_INDEX[which]
    if which not in _PRESETS_BY_NAME:
        raise KeyError(
            f"unknown DLRM preset {which!r}; available: {sorted(_PRESETS_BY_NAME)}"
        )
    return _PRESETS_BY_NAME[which]
