"""Small shared utilities: unit helpers, table rendering, statistics."""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    KB,
    MB,
    GB,
    KILO,
    MEGA,
    GIGA,
    bytes_to_human,
    gbps,
    nanoseconds,
    microseconds,
    milliseconds,
    seconds_to_human,
)
from repro.utils.tables import TextTable
from repro.utils.stats_utils import (
    geometric_mean,
    harmonic_mean,
    safe_divide,
)

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "KILO",
    "MEGA",
    "GIGA",
    "bytes_to_human",
    "gbps",
    "nanoseconds",
    "microseconds",
    "milliseconds",
    "seconds_to_human",
    "TextTable",
    "geometric_mean",
    "harmonic_mean",
    "safe_divide",
]
