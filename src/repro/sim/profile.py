"""Lightweight event-loop profiling: who eats the wall-clock, by label.

Enable with ``Simulator(profile=True)``; the run loop then records, for
every fired event, its label, and the host wall-clock its callback spent.
Arrivals, delivered in runs by the merged arrival source, are still
recorded one by one under ``"arrival"``.
The result answers the first question of any engine optimisation: *which
event class dominates?* — without reaching for ``cProfile``.

Labels follow the convention the serving stack already uses:
``"arrival"``, ``"<replica>:batch-close"``, ``"<replica>:complete"``,
``"autoscale:tick"``, ``"autoscale:warm"``.  Unlabeled events group under
``"(unlabeled)"``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

__all__ = ["SimProfile", "LabelStats"]

#: Fallback group for events scheduled without a label.
_UNLABELED = "(unlabeled)"


class LabelStats:
    """Aggregate of one event label: fire count and cumulative wall-clock."""

    __slots__ = ("label", "count", "seconds")

    def __init__(self, label: str, count: int = 0, seconds: float = 0.0):
        self.label = label
        self.count = count
        self.seconds = seconds

    @property
    def mean_us(self) -> float:
        """Mean callback wall-clock in microseconds."""
        if self.count == 0:
            return 0.0
        return 1e6 * self.seconds / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabelStats({self.label!r}, count={self.count}, "
            f"seconds={self.seconds:.6f})"
        )


class SimProfile:
    """Per-event-label counts and cumulative host wall-clock of one run."""

    def __init__(self) -> None:
        self._stats: Dict[str, LabelStats] = {}

    # -- recording (engine-internal hot path) ---------------------------
    def record(self, label: str, seconds: float) -> None:
        if not label:
            label = _UNLABELED
        stats = self._stats.get(label)
        if stats is None:
            stats = self._stats[label] = LabelStats(label)
        stats.count += 1
        stats.seconds += seconds

    # -- reading ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[LabelStats]:
        """Labels ordered by cumulative wall-clock, heaviest first."""
        return iter(
            sorted(self._stats.values(), key=lambda s: (-s.seconds, s.label))
        )

    def get(self, label: str) -> LabelStats:
        """Stats of one label (zeroes when the label never fired)."""
        return self._stats.get(label, LabelStats(label))

    @property
    def total_events(self) -> int:
        return sum(stats.count for stats in self._stats.values())

    @property
    def total_seconds(self) -> float:
        return sum(stats.seconds for stats in self._stats.values())

    def rows(self) -> List[Tuple[str, int, float, float, float]]:
        """Render-ready rows: (label, count, seconds, mean µs, share).

        Shares are fractions of the recorded total; heaviest label first.
        """
        total = self.total_seconds
        return [
            (
                stats.label,
                stats.count,
                stats.seconds,
                stats.mean_us,
                stats.seconds / total if total > 0 else 0.0,
            )
            for stats in self
        ]
