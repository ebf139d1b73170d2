"""Reproduction of the paper's Tables I-V as structured data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config.models import DLRMConfig
from repro.config.presets import PAPER_MODELS
from repro.config.system import FPGAConfig, PowerConfig
from repro.core.resources import FPGAResourceModel, ModuleResources
from repro.power.models import PowerModel


# ---------------------------------------------------------------------------
# Table I: recommendation model configurations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One row of Table I, as the configured model reproduces it."""

    model_name: str
    num_tables: int
    gathers_per_table: float
    table_bytes: int
    mlp_bytes: int


def table1_model_configurations(
    models: Optional[Sequence[DLRMConfig]] = None,
) -> List[Table1Row]:
    """Reproduce Table I from the configured models."""
    models = tuple(models) if models is not None else PAPER_MODELS
    return [
        Table1Row(
            model_name=model.name,
            num_tables=model.num_tables,
            gathers_per_table=model.gathers_per_table,
            table_bytes=model.embedding_table_bytes,
            mlp_bytes=model.mlp_parameter_bytes,
        )
        for model in models
    ]


# ---------------------------------------------------------------------------
# Table II: Centaur FPGA resource utilization
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Row:
    """One resource column of Table II: available, used and utilization."""

    resource: str
    available: float
    used: float

    @property
    def utilization(self) -> float:
        return self.used / self.available


def table2_fpga_utilization(fpga: Optional[FPGAConfig] = None) -> List[Table2Row]:
    """Reproduce Table II from the FPGA resource model."""
    fpga = fpga if fpga is not None else FPGAConfig()
    model = FPGAResourceModel(fpga)
    report = model.report()
    fabric = fpga.fabric
    return [
        Table2Row("ALM", fabric.alms, report.alms),
        Table2Row("Block memory bits", fabric.block_memory_bits, report.block_memory_bits),
        Table2Row("RAM blocks", fabric.ram_blocks, report.ram_blocks),
        Table2Row("DSP", fabric.dsps, report.dsps),
        Table2Row("PLL", fabric.plls, report.plls),
    ]


# ---------------------------------------------------------------------------
# Table III: sparse vs dense module resource usage
# ---------------------------------------------------------------------------
def table3_module_resources(fpga: Optional[FPGAConfig] = None) -> List[ModuleResources]:
    """Reproduce Table III's per-module resource breakdown, in the paper's row order."""
    return FPGAResourceModel(fpga if fpga is not None else FPGAConfig()).all_modules()


# ---------------------------------------------------------------------------
# Table IV: power consumption
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table4Row:
    """One design-point column of Table IV."""

    design_point: str
    watts: float


def table4_power(power: Optional[PowerConfig] = None) -> List[Table4Row]:
    """Reproduce Table IV (the CPU-GPU column is the sum of CPU and GPU power)."""
    model = PowerModel(power if power is not None else PowerConfig())
    return [Table4Row(point, watts) for point, watts in model.table4().items()]


# ---------------------------------------------------------------------------
# Table V: qualitative comparison against prior work
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table5Row:
    """One prior-work column of Table V (a qualitative feature matrix)."""

    system: str
    transparent_to_hardware: bool
    transparent_to_software: bool
    accelerates_dense_dnn: bool
    accelerates_gathers: bool
    handles_small_vector_loads: bool
    studies_recommendation: bool


def table5_related_work() -> List[Table5Row]:
    """Reproduce Table V's comparison between Centaur and prior accelerators."""
    return [
        Table5Row("TABLA", True, True, True, False, False, False),
        Table5Row("DNNWEAVER", True, True, True, False, False, False),
        Table5Row("DNNBuilder", True, True, True, False, False, False),
        Table5Row("Cloud-DNN", True, True, True, False, False, False),
        Table5Row("Chameleon", False, False, False, True, True, False),
        Table5Row("TensorDIMM", False, False, False, True, False, True),
        Table5Row("Centaur (Ours)", True, True, True, True, True, True),
    ]
