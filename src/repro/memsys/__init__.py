"""Memory-system substrate: caches, DRAM and analytic equivalents.

The CPU-side characterization of the paper (Figures 6 and 7) hinges on how
the cache hierarchy and the DRAM subsystem respond to sparse, low-locality
embedding gathers versus dense, cache-resident MLP weights.  This package
provides both a trace-driven simulator (faithful but slow; used by tests and
small experiments) and closed-form analytic models (used by the benchmark
harness across full Table I configurations).
"""

from repro.memsys.address import AddressMapper, cache_lines_for_vector
from repro.memsys.cache import ReplacementPolicy, SetAssociativeCache
from repro.memsys.hierarchy import CacheHierarchy, HierarchyAccessResult
from repro.memsys.dram import DRAMModel, DRAMRequestStats
from repro.memsys.stats import CacheStats, MemoryTrafficStats
from repro.memsys.analytic import (
    AnalyticCacheModel,
    EmbeddingAccessProfile,
    MLPAccessProfile,
    memory_level_parallelism_bandwidth,
)

__all__ = [
    "AddressMapper",
    "cache_lines_for_vector",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyAccessResult",
    "DRAMModel",
    "DRAMRequestStats",
    "CacheStats",
    "MemoryTrafficStats",
    "AnalyticCacheModel",
    "EmbeddingAccessProfile",
    "MLPAccessProfile",
    "memory_level_parallelism_bandwidth",
]
