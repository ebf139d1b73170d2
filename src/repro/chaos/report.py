"""Incident accounting: what each injected fault cost the fleet.

The :class:`~repro.chaos.injector.FaultInjector` records raw per-incident
facts while the simulation runs (onset/clear times, shed and re-dispatched
counts, energy and replica-second snapshots) into an
:class:`IncidentReport`.  :func:`measure_incidents` then slices the fleet's
pooled completion timeline at those windows, against the caller's latency
budget, to produce the SLA view — attainment before/during/after each
incident and the time-to-recover back to the pre-incident p99.  A window
in which nothing completed has no attainment and no p99: it reads
``None``, never a vacuous 100%.

Everything here is pure arithmetic over deterministic inputs, so equal
seeds produce byte-identical :class:`IncidentReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.serving.metrics import pooled_completions, window_latency

#: A recovered window may sit this fraction above the pre-incident p99
#: before it counts as recovered (tail estimates over small windows are
#: noisy; an exact-match bar would censor most real recoveries).
_RECOVERY_TOLERANCE = 1.1

#: Floor on the derived attainment/recovery window (seconds).
_MIN_WINDOW_S = 5e-3


@dataclass(frozen=True)
class Incident:
    """One injected fault, as the injector recorded it.

    Attributes:
        kind: Fault kind tag (``"crash"``, ``"shard-loss"``, ``"link"``,
            ``"brownout"``).
        target: What broke, e.g. ``"replica:2"`` or ``"shard:0"``.
        start_s: Fault onset (simulated seconds).
        end_s: Service restoration — restart fully warmed, shard restored,
            degradation window closed; the run horizon when the fault was
            never cleared (``cleared`` distinguishes the two).
        cleared: False when the fault was still open at end of run.
        shed_requests: In-flight/arriving requests dropped by this fault.
        redispatched_requests: In-flight requests re-routed to survivors.
        degraded_lookups: Lookups served by the wrong shard under re-hash
            failover (correctness loss; zero for non-shard faults).
        recovery_replica_seconds: Replica-seconds billed between onset and
            restoration.
        recovery_energy_joules: Device energy spent between onset and
            restoration.
        refill_rows: Hot-row cache rows lost to a cold restart — rows the
            restored shard must re-gather before its cache is warm again
            (zero for faults without a cache restart).
        refill_s: Gather seconds the refill costs, priced through the
            backend's EMB cost model.
        refill_energy_joules: Device energy the refill costs.
        note: Free-form detail (no-op crashes, total-outage sheds, ...).
    """

    kind: str
    target: str
    start_s: float
    end_s: float
    cleared: bool
    shed_requests: int
    redispatched_requests: int
    degraded_lookups: int
    recovery_replica_seconds: float
    recovery_energy_joules: float
    refill_rows: int
    refill_s: float
    refill_energy_joules: float
    note: str


@dataclass(frozen=True)
class IncidentReport:
    """Resilience ledger of one chaos-injected serving run.

    Attached to :class:`~repro.serving.cluster.ClusterReport` as
    ``incidents`` when the run carried a non-empty fault schedule.  The
    incidents are in onset order.
    """

    schedule: str
    horizon_s: float
    incidents: Tuple[Incident, ...]

    @property
    def total_shed(self) -> int:
        return sum(incident.shed_requests for incident in self.incidents)

    @property
    def total_redispatched(self) -> int:
        return sum(incident.redispatched_requests for incident in self.incidents)

    @property
    def total_degraded_lookups(self) -> int:
        return sum(incident.degraded_lookups for incident in self.incidents)

    @property
    def total_refill_rows(self) -> int:
        return sum(incident.refill_rows for incident in self.incidents)

    @property
    def total_refill_s(self) -> float:
        return sum(incident.refill_s for incident in self.incidents)

    @property
    def total_refill_energy_joules(self) -> float:
        return sum(incident.refill_energy_joules for incident in self.incidents)

    def correctness_loss(self, total_lookups: int) -> float:
        """Fraction of the run's lookups served degraded under re-hash."""
        if total_lookups <= 0:
            return 0.0
        return self.total_degraded_lookups / total_lookups


@dataclass(frozen=True)
class IncidentWindows:
    """The SLA view of one incident.

    Attributes:
        incident: The recorded incident.
        sla_before: Attainment in the window before onset.
        sla_during: Attainment between onset and restoration.
        sla_after: Attainment in the window after restoration.  Each of
            the three is ``None`` when nothing completed in its window.
        p99_before_s: Pre-incident p99 the recovery scan targets (``None``
            when nothing completed before onset).
        time_to_recover_s: Time from onset until a full window's p99 first
            returns to within 10% of ``p99_before_s``; ``None`` when the
            run ends first (censored) or there is no pre-incident baseline.
    """

    incident: Incident
    sla_before: Optional[float]
    sla_during: Optional[float]
    sla_after: Optional[float]
    p99_before_s: Optional[float]
    time_to_recover_s: Optional[float]


@dataclass(frozen=True)
class IncidentMeasures:
    """Every incident of one run, measured against one latency budget.

    Attributes:
        window_s: Width of the before/after windows and of the
            time-to-recover buckets.
        windows: One entry per incident, in onset order.
    """

    window_s: float
    windows: Tuple[IncidentWindows, ...]

    @property
    def worst_time_to_recover_s(self) -> Optional[float]:
        """Largest measured time-to-recover; ``None`` if none was measurable."""
        recovered = (windows.time_to_recover_s for windows in self.windows)
        return max((value for value in recovered if value is not None), default=None)

    @property
    def worst_sla_during(self) -> Optional[float]:
        """Lowest attainment during an incident; ``None`` if none was measurable."""
        during = (windows.sla_during for windows in self.windows)
        return min((value for value in during if value is not None), default=None)


def _time_to_recover(
    times_s: np.ndarray,
    latencies_s: np.ndarray,
    start_s: float,
    p99_before_s: Optional[float],
    window_s: float,
    horizon_s: float,
) -> Optional[float]:
    """First window end (relative to onset) whose p99 is back to baseline.

    Scans consecutive ``window_s`` buckets from the fault onset; a bucket
    with at least one completion whose p99 is within
    ``_RECOVERY_TOLERANCE`` of the pre-incident p99 marks recovery.  Empty
    buckets during a total outage do *not* count as recovered — nothing
    completing is the opposite of healthy.  Returns ``None`` when the run
    ends before any bucket qualifies, or when there is no baseline.
    """
    if not p99_before_s:
        return None
    target = p99_before_s * _RECOVERY_TOLERANCE
    edge = start_s
    while edge < horizon_s:
        lo, hi = np.searchsorted(times_s, (edge, edge + window_s))
        window = window_latency(latencies_s[lo:hi])
        if window is not None and window.percentile(99.0) <= target:
            return edge + window_s - start_s
        edge += window_s
    return None


def measure_incidents(report, sla_s: float) -> IncidentMeasures:
    """Measure each incident's windows over the run's completion timeline.

    Takes a :class:`~repro.serving.cluster.ClusterReport` whose
    ``incidents`` field is populated and slices its pooled completions
    (:func:`~repro.serving.metrics.pooled_completions`) around every
    incident.  The window width is the longest incident, floored at 5 ms.

    Args:
        report: The chaos-injected run.
        sla_s: Latency budget for attainment — the run's one SLA.
    """
    if sla_s <= 0:
        raise SimulationError(f"sla_s must be positive, got {sla_s}")
    incidents = report.incidents.incidents
    window_s = max(
        max((incident.end_s - incident.start_s for incident in incidents), default=0.0),
        _MIN_WINDOW_S,
    )
    times_s, latencies_s = pooled_completions(report.per_replica)
    measured = []
    for incident in incidents:
        start_s, end_s = incident.start_s, incident.end_s
        # Before, during and after: each window holds the completions with
        # window start <= time < window end.
        edges = np.searchsorted(
            times_s, (start_s - window_s, start_s, end_s, end_s + window_s)
        )
        before, during, after = (
            window_latency(latencies_s[lo:hi]) for lo, hi in zip(edges, edges[1:])
        )
        sla_before, sla_during, sla_after = (
            None if window is None else window.sla_attainment(sla_s)
            for window in (before, during, after)
        )
        p99_before = None if before is None else before.percentile(99.0)
        recover = _time_to_recover(
            times_s, latencies_s, start_s, p99_before, window_s, report.incidents.horizon_s
        )
        measured.append(
            IncidentWindows(incident, sla_before, sla_during, sla_after, p99_before, recover)
        )
    return IncidentMeasures(window_s=window_s, windows=tuple(measured))
