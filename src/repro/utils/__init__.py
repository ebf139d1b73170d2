"""Small shared utilities: unit helpers, table rendering, statistics."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".units": (
            "KIB", "MIB", "GIB", "KB", "MB", "GB", "KILO", "MEGA", "GIGA", "bytes_to_human", "gbps",
            "nanoseconds", "microseconds", "milliseconds", "seconds_to_human",
        ),
        ".tables": ("TextTable",),
        ".stats_utils": ("geometric_mean", "harmonic_mean", "safe_divide"),
    },
)
