"""Average-power models of the three design points.

The paper measures socket-level power with ``pcm-power`` (CPU and
CPU+FPGA) and ``nvprof`` (GPU) and reports one average number per design
point (Table IV).  The model reproduces those totals; the paper reports no
split by component, so none is modelled.
"""

from __future__ import annotations

from typing import Dict

from repro.config.system import PowerConfig
from repro.errors import ConfigurationError

#: Canonical design-point names used across the library.
DESIGN_POINTS = ("CPU-only", "CPU-GPU", "Centaur")


class PowerModel:
    """Maps design points to average power, calibrated to Table IV."""

    def __init__(self, config: PowerConfig):
        self.config = config

    # ------------------------------------------------------------------
    def power_watts(self, design_point: str) -> float:
        """Average power of a design point (Table IV)."""
        if design_point == "CPU-only":
            return self.config.cpu_only_watts
        if design_point == "CPU-GPU":
            return self.config.cpu_gpu_total_watts
        if design_point == "Centaur":
            return self.config.centaur_watts
        raise ConfigurationError(
            f"unknown design point {design_point!r}; expected one of {DESIGN_POINTS}"
        )

    def table4(self) -> Dict[str, float]:
        """The Table IV rows: design point -> average Watts."""
        return {point: self.power_watts(point) for point in DESIGN_POINTS}
