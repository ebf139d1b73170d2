"""Sigmoid unit: computes the final event probability on the FPGA.

The hardware evaluates the logistic function with a small piecewise-linear
approximation (a handful of comparators and multipliers); the functional
model offers both that approximation and the exact function so integration
tests can choose bit-accuracy against the software model or hardware
fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SigmoidTiming:
    """Cycle cost of the sigmoid stage."""

    cycles: int

    def latency_s(self, frequency_hz: float) -> float:
        return self.cycles / frequency_hz


class SigmoidUnit:
    """Element-wise sigmoid with selectable fidelity.

    Args:
        mode: ``"exact"`` (default; matches the software model bit-for-bit up
            to fp32 rounding) or ``"piecewise"`` (hardware-style 3-segment
            approximation, max absolute error below 0.02).
        cycles_per_element: Pipeline cycles per output element.
    """

    def __init__(self, mode: str = "exact", cycles_per_element: int = 4):
        if mode not in ("exact", "piecewise"):
            raise ConfigurationError(f"mode must be 'exact' or 'piecewise', got {mode!r}")
        if cycles_per_element <= 0:
            raise ConfigurationError(
                f"cycles_per_element must be positive, got {cycles_per_element}"
            )
        self.mode = mode
        self.cycles_per_element = cycles_per_element

    # ------------------------------------------------------------------
    def forward(self, logits: np.ndarray) -> np.ndarray:
        """Apply the sigmoid to a vector of logits."""
        logits = np.asarray(logits, dtype=np.float32)
        if self.mode == "exact":
            from repro.dlrm.mlp import sigmoid

            return sigmoid(logits)
        return self._piecewise(logits)

    @staticmethod
    def _piecewise(logits: np.ndarray) -> np.ndarray:
        """A 3-segment piecewise-linear approximation of the sigmoid.

        ``sigma(x) ~= clip(0.25 * x + 0.5, 0, 1)`` for |x| < 2.375 with two
        saturating outer segments; this is the classic "PLAN" approximation
        used by lightweight hardware implementations.
        """
        x = np.asarray(logits, dtype=np.float32)
        out = np.empty_like(x)
        absolute = np.abs(x)
        segment1 = absolute < 1.0
        segment2 = (absolute >= 1.0) & (absolute < 2.375)
        segment3 = absolute >= 2.375
        out[segment1] = 0.25 * absolute[segment1] + 0.5
        out[segment2] = 0.125 * absolute[segment2] + 0.625
        out[segment3] = np.minimum(0.03125 * absolute[segment3] + 0.84375, 1.0)
        negative = x < 0
        out[negative] = 1.0 - out[negative]
        return out.astype(np.float32)

    # ------------------------------------------------------------------
    def timing(self, batch_size: int) -> SigmoidTiming:
        """Cycle cost of producing ``batch_size`` probabilities."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        return SigmoidTiming(cycles=batch_size * self.cycles_per_element)
