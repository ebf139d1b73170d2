"""Small statistics helpers shared by the performance models and analyses."""

from __future__ import annotations

import math
from typing import Iterable


def safe_divide(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Divide, returning ``default`` when the denominator is zero.

    Performance models frequently compute rates (misses per access, bytes
    per second) over counters that can legitimately be zero for degenerate
    configurations (e.g. a model with no embedding tables).
    """
    if denominator == 0:
        return default
    return numerator / denominator


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Used for averaging speedups/efficiency ratios across workloads, which is
    the conventional way architecture papers summarize cross-benchmark gains.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires strictly positive values")
    log_sum = sum(math.log(value) for value in values)
    return math.exp(log_sum / len(values))


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean of strictly positive values (used for rate averaging)."""
    values = list(values)
    if not values:
        raise ValueError("harmonic mean of an empty sequence is undefined")
    if any(value <= 0 for value in values):
        raise ValueError("harmonic mean requires strictly positive values")
    return len(values) / sum(1.0 / value for value in values)
