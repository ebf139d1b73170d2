"""Latency/throughput metrics for the serving simulation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

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
    nothing is a bug, not a statistic).  ``allow_empty=True`` admits the one
    report that may hold no samples: a fleet whose every request a total
    outage shed.  An empty distribution raises a clear
    :class:`~repro.errors.SimulationError` from every statistic, attainment
    included: no completed request means no attainment to report.  Windowed
    views ask :func:`window_latency` instead, which answers ``None`` for a
    window in which nothing completed.
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

        Attainment is a fraction of completed requests, so an empty
        distribution has none and raises like every other statistic.
        """
        if sla_s <= 0:
            raise SimulationError(f"sla_s must be positive, got {sla_s}")
        self._require_samples("sla_attainment")
        # The array is sorted, so attainment is one binary search.
        return float(np.searchsorted(self._latencies, sla_s, side="right")) / len(self)


@dataclass
class ServingReport:
    """Outcome of serving one request stream on one design point."""

    design_point: str
    model_name: str
    completed_requests: int
    makespan_s: float
    average_batch_size: float
    device_busy_s: float
    energy_joules: float
    executed_batches: Tuple[ExecutedBatch, ...] = ()
    #: Per-request latencies in completion order: the report's one
    #: per-request record.  ``latency`` sorts it; repeating each executed
    #: batch's finish time by its size recovers each request's completion
    #: time, which :func:`pooled_completions` does for a whole fleet.
    ordered_latency_s: np.ndarray = field(default_factory=lambda: np.empty(0))

    @functools.cached_property
    def latency(self) -> LatencyDistribution:
        """The per-request latencies, sorted for percentile queries."""
        return LatencyDistribution(self.ordered_latency_s)

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


def pooled_completions(
    reports: Sequence[ServingReport],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Every completion of a fleet as ``(times_s, latencies_s)`` arrays.

    A request completes when its batch finishes, so a replica's completion
    times are its batch finish times repeated by batch size, aligned with
    its ``ordered_latency_s``.  The replicas' records are concatenated and
    stably sorted by time, so ties keep replica order.  Every windowed view
    (the autoscale timeline, the incident windows) slices this one timeline.
    """
    batches = [batch for report in reports for batch in report.executed_batches]
    times = np.repeat(
        [batch.finish_time_s for batch in batches], [batch.batch_size for batch in batches]
    )
    latencies = np.concatenate([np.empty(0)] + [report.ordered_latency_s for report in reports])
    if times.size != latencies.size:
        raise SimulationError(
            f"completion record out of step: {times.size} batched requests, "
            f"{latencies.size} latencies"
        )
    order = np.argsort(times, kind="stable")
    return times[order], latencies[order]


def window_latency(latencies_s: "np.ndarray") -> Optional[LatencyDistribution]:
    """The latencies of one window's completions; ``None`` if none completed.

    A window in which nothing completed has no attainment and no tail: tail
    latency only means something over requests that finished (Dean and
    Barroso, "The Tail at Scale", CACM 2013).  Windowed views render
    ``None`` as ``-`` instead of inventing a vacuous 100%.
    """
    return LatencyDistribution(latencies_s) if len(latencies_s) else None
