"""Latency/throughput metrics for the serving simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class ExecutedBatch:
    """One batch as the device executed it (boundary record).

    Attributes:
        ready_time_s: Time the batching policy closed the batch.
        start_time_s: Time the device started executing it.
        finish_time_s: Time the device finished it.
        batch_size: Number of requests in the batch (as formed, before any
            bucket padding).
    """

    ready_time_s: float
    start_time_s: float
    finish_time_s: float
    batch_size: int


class LatencyDistribution:
    """A collection of per-request latencies with percentile queries.

    Samples are sorted once at construction; every statistic and percentile
    query reads the sorted array, and the common tail percentiles
    (p50/p95/p99) are computed together in a single vectorized pass.

    Distributions are non-empty by default (a serving run that completed
    nothing is a bug, not a statistic).  Pass ``allow_empty=True`` for
    windowed views — e.g. one bucket of an autoscaling attainment timeline
    in which no request happened to complete.  An empty distribution answers
    :meth:`sla_attainment` vacuously (1.0) and raises a clear
    :class:`~repro.errors.SimulationError` from every statistic that needs
    at least one sample.
    """

    _COMMON_PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(self, latencies_s: Sequence[float], allow_empty: bool = False):
        if len(latencies_s) == 0 and not allow_empty:
            raise SimulationError("latency distribution needs at least one sample")
        array = np.asarray(latencies_s, dtype=np.float64)
        if np.any(array < 0):
            raise SimulationError("latencies must be non-negative")
        self._latencies = np.sort(array)
        self._common: Dict[float, float] = {}

    def __len__(self) -> int:
        return int(self._latencies.size)

    @property
    def samples_s(self) -> "np.ndarray":
        """A copy of the individual latencies (sorted ascending)."""
        return self._latencies.copy()

    def _require_samples(self, what: str) -> None:
        if self._latencies.size == 0:
            raise SimulationError(
                f"latency distribution is empty; {what} needs at least one sample"
            )

    @property
    def mean_s(self) -> float:
        self._require_samples("mean_s")
        return float(self._latencies.mean())

    @property
    def max_s(self) -> float:
        self._require_samples("max_s")
        return float(self._latencies[-1])

    def percentiles(self, percentiles: Sequence[float]) -> "np.ndarray":
        """Latencies at several percentiles in one vectorized pass."""
        self._require_samples("percentiles")
        values = np.asarray(percentiles, dtype=np.float64)
        if values.size and (values.min() < 0.0 or values.max() > 100.0):
            raise SimulationError(
                f"percentiles must be in [0, 100], got {list(percentiles)}"
            )
        return np.percentile(self._latencies, values)

    def percentile(self, percentile: float) -> float:
        """Latency at a percentile (e.g. ``99.0`` for the p99 tail)."""
        self._require_samples("percentile")
        if not 0.0 <= percentile <= 100.0:
            raise SimulationError(f"percentile must be in [0, 100], got {percentile}")
        return float(np.percentile(self._latencies, percentile))

    def _common_percentile(self, percentile: float) -> float:
        if not self._common:
            values = self.percentiles(self._COMMON_PERCENTILES)
            self._common = dict(zip(self._COMMON_PERCENTILES, values.tolist()))
        return self._common[percentile]

    @property
    def p50_s(self) -> float:
        return self._common_percentile(50.0)

    @property
    def p95_s(self) -> float:
        return self._common_percentile(95.0)

    @property
    def p99_s(self) -> float:
        return self._common_percentile(99.0)

    def sla_attainment(self, sla_s: float) -> float:
        """Fraction of requests finishing within an SLA budget.

        An empty distribution attains any SLA vacuously (1.0): zero of zero
        requests missed the budget.  This guard is what keeps windowed
        attainment views (timeline buckets with no completions) from dividing
        by zero.
        """
        if sla_s <= 0:
            raise SimulationError(f"sla_s must be positive, got {sla_s}")
        if len(self) == 0:
            return 1.0
        # The array is sorted, so attainment is one binary search.
        return float(np.searchsorted(self._latencies, sla_s, side="right")) / len(self)


@dataclass
class ServingReport:
    """Outcome of serving one request stream on one design point."""

    design_point: str
    model_name: str
    offered_load_qps: float
    completed_requests: int
    makespan_s: float
    latency: LatencyDistribution
    queueing: LatencyDistribution
    average_batch_size: float
    device_busy_s: float
    energy_joules: float
    extra: Dict[str, float] = field(default_factory=dict)
    executed_batches: Tuple[ExecutedBatch, ...] = ()
    #: Per-request latencies in completion order (``latency`` sorts them
    #: away); zipping against ``executed_batches`` sizes recovers each
    #: request's completion time, which timeline renderers bucket by.
    ordered_latency_s: Tuple[float, ...] = ()

    def completion_samples(self) -> List[Tuple[float, float]]:
        """``(completion_time_s, latency_s)`` pairs in completion order."""
        # Each batch's own finish-time float, repeated by reference: a
        # float64 np.repeat would box a new float per request.
        finishes = chain.from_iterable(
            repeat(batch.finish_time_s, batch.batch_size)
            for batch in self.executed_batches
        )
        return list(zip(finishes, self.ordered_latency_s))

    @property
    def achieved_qps(self) -> float:
        if self.makespan_s == 0:
            return 0.0
        return self.completed_requests / self.makespan_s

    @property
    def device_utilization(self) -> float:
        if self.makespan_s == 0:
            return 0.0
        return min(1.0, self.device_busy_s / self.makespan_s)

    @property
    def energy_per_request_joules(self) -> float:
        if self.completed_requests == 0:
            return 0.0
        return self.energy_joules / self.completed_requests
