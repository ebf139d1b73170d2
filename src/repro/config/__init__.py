"""Configuration objects and presets for the Centaur reproduction.

Two families of configuration live here:

* Hardware/system configurations (:mod:`repro.config.system`) describing the
  CPU, memory system, chiplet link, FPGA fabric, GPU and power envelopes of
  the three design points evaluated in the paper (``CPU-only``, ``CPU-GPU``
  and ``Centaur``).
* Workload configurations (:mod:`repro.config.models`) describing DLRM
  recommendation models, with the six Table I presets in
  :mod:`repro.config.presets`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".system": (
            "CPUConfig", "MemoryConfig", "LinkConfig", "FPGAConfig", "GPUConfig", "PowerConfig",
            "SystemConfig",
        ),
        ".models": ("DLRMConfig", "EmbeddingTableConfig", "MLPConfig"),
        ".presets": (
            "BROADWELL_XEON", "DDR4_QUAD_CHANNEL", "HARPV2_LINK", "ARRIA10_GX1150", "CENTAUR_FPGA",
            "DGX1_V100", "PAPER_POWER", "HARPV2_SYSTEM", "DLRM1", "DLRM2", "DLRM3", "DLRM4",
            "DLRM5", "DLRM6", "PAPER_MODELS", "PAPER_BATCH_SIZES", "dlrm_preset",
        ),
    },
)
