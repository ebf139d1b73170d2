"""Deterministic fault injection and resilience reporting.

`repro.chaos` injects declarative, seed-deterministic fault schedules
(replica crashes, shard loss, link degradation, brownouts) into serving
simulations as ``chaos:`` control events, and measures what each incident
cost: SLA attainment before/during/after, time-to-recover to the
pre-incident p99, shed/re-dispatched requests, and the replica-second and
energy bill of the recovery.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".faults": (
            "Brownout", "FaultSchedule", "FaultSpec", "LinkDegradation", "PoissonFaults",
            "ReplicaCrash", "ShardLoss", "parse_fault_schedule",
        ),
        ".injector": ("FaultInjector",),
        ".report": (
            "Incident", "IncidentMeasures", "IncidentReport", "IncidentWindows",
            "measure_incidents",
        ),
    },
)
