"""Memory-system substrate: caches, DRAM and analytic equivalents.

The CPU-side characterization of the paper (Figures 6 and 7) hinges on how
the cache hierarchy and the DRAM subsystem respond to sparse, low-locality
embedding gathers versus dense, cache-resident MLP weights.  This package
provides both a trace-driven simulator (faithful but slow; used by tests and
small experiments) and closed-form analytic models (used by the benchmark
harness across full Table I configurations).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".address": ("AddressMapper", "cache_lines_for_vector"),
        ".cache": ("ReplacementPolicy", "SetAssociativeCache"),
        ".hierarchy": ("CacheHierarchy", "HierarchyAccessResult"),
        ".dram": ("DRAMModel", "DRAMRequestStats"),
        ".stats": ("CacheStats", "MemoryTrafficStats"),
        ".analytic": (
            "AnalyticCacheModel", "EmbeddingAccessProfile", "MLPAccessProfile",
            "memory_level_parallelism_bandwidth",
        ),
    },
)
