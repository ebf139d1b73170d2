"""Capacity planning: the minimal fleet meeting a p99 SLA per backend.

Where the autoscaler answers "how should the fleet breathe with the load",
the planner answers the question that precedes it: how many replicas of
each backend does a workload need at all?  :class:`CapacityPlanner`
searches replica counts per backend (exponential probe, then binary
search over the bracketed range) and keeps the smallest fleet whose
simulated p99 SLA attainment reaches the target.  Every evaluation is a
full event-driven :class:`~repro.serving.fleet.Fleet` run of the workload
at a fixed seed, so plans are deterministic and directly
comparable across backends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.registry import available_backends, canonical_backend_name, get_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.serving.batching import BatchingPolicy
from repro.serving.cluster import ClusterReport
from repro.serving.dispatch import Dispatcher, RoundRobinDispatcher
from repro.serving.fleet import Fleet, FleetSpec
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class CapacityPoint:
    """The minimal-fleet answer for one backend.

    Attributes:
        backend: Registry name of the backend.
        replicas: Smallest fleet meeting the target, or ``None`` when even
            ``max_replicas`` falls short.
        attainment: SLA attainment of the chosen fleet (of the largest
            fleet tried, when infeasible).
        p99_s: p99 latency of that fleet.
        replica_seconds: Replica-hours bill (in seconds) of that fleet.
        energy_per_request_joules: Busy energy per completed request.
        evaluated: Replica counts the search actually simulated, in order.
    """

    backend: str
    replicas: Optional[int]
    attainment: float
    p99_s: float
    replica_seconds: float
    energy_per_request_joules: float
    evaluated: Tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return self.replicas is not None


@dataclass(frozen=True)
class CapacityPlan:
    """All per-backend answers for one workload and SLA target."""

    workload_name: str
    model_name: str
    sla_s: float
    target_attainment: float
    points: Tuple[CapacityPoint, ...]

    def get(self, backend: str) -> CapacityPoint:
        """The point of ``backend``, by registry name or alias.

        Raises:
            KeyError: When the plan holds no point for that backend.
        """
        name = canonical_backend_name(backend)
        for point in self.points:
            if point.backend == name:
                return point
        raise KeyError(f"no capacity point for backend {backend!r}")

    def best(self) -> Optional[CapacityPoint]:
        """The cheapest feasible fleet: fewest replicas, ties by energy."""
        feasible = [point for point in self.points if point.feasible]
        if not feasible:
            return None
        return min(
            feasible,
            key=lambda point: (point.replicas, point.energy_per_request_joules),
        )


class CapacityPlanner:
    """Searches the minimal replica count per backend for an SLA target.

    Args:
        system: Hardware platform backends are resolved against.
        sla_s: Per-request latency budget the p99 target is written against.
        target_attainment: Fraction of requests that must finish within the
            SLA (0.99 asks for the p99 tail to meet the budget).
        max_replicas: Search ceiling per backend.
        batching: Batching policy for every simulated fleet.
        dispatcher: Dispatcher for every simulated fleet (fresh default:
            round-robin).
        seed: Workload stream seed shared by every evaluation.
        jobs: Worker processes for :meth:`plan` — backends search in
            parallel, each backend's exponential+binary search stays
            sequential (every probe depends on the previous verdict).
            ``1`` = serial, ``0`` = one worker per CPU.
    """

    def __init__(
        self,
        system: SystemConfig,
        sla_s: float,
        target_attainment: float = 0.99,
        max_replicas: int = 64,
        batching: Optional[BatchingPolicy] = None,
        dispatcher: Optional[Dispatcher] = None,
        seed: int = 0,
        jobs: int = 1,
    ):
        from repro.experiment.executor import resolve_jobs

        if sla_s <= 0:
            raise SimulationError(f"sla_s must be positive, got {sla_s}")
        if not 0.0 < target_attainment <= 1.0:
            raise SimulationError(
                f"target_attainment must be in (0, 1], got {target_attainment}"
            )
        if max_replicas <= 0:
            raise SimulationError(f"max_replicas must be positive, got {max_replicas}")
        resolve_jobs(jobs)  # validate eagerly; keep the raw setting
        self.system = system
        self.sla_s = sla_s
        self.target_attainment = target_attainment
        self.max_replicas = max_replicas
        self.batching = batching
        self.dispatcher = dispatcher
        self.seed = seed
        self.jobs = int(jobs)

    # ------------------------------------------------------------------
    def plan_backend(
        self,
        backend_name: str,
        model: DLRMConfig,
        workload: Workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> CapacityPoint:
        """Minimal-fleet search for one backend.

        Doubles the fleet until the target is met (or ``max_replicas`` is
        hit), then binary-searches the bracketed range.  Attainment is
        treated as monotone in fleet size, which holds for open-loop
        arrival streams: more replicas never see more load each.  The
        point is recorded under the backend's canonical registry name.
        """
        backend_name = canonical_backend_name(backend_name)
        backend = get_backend(backend_name, self.system)
        evaluated: List[int] = []
        reports: Dict[int, ClusterReport] = {}
        # Every probe, one replica included, sits behind a dispatcher and
        # so reports a ClusterReport (its replica_seconds bill).
        dispatcher = self.dispatcher if self.dispatcher is not None else RoundRobinDispatcher()

        def meets(count: int) -> bool:
            if count not in reports:
                evaluated.append(count)
                spec = FleetSpec(replicas=count, batching=self.batching, dispatcher=dispatcher)
                reports[count] = Fleet(backend, model, spec).serve_workload(
                    workload, duration_s=duration_s, num_requests=num_requests, seed=self.seed
                )
            attainment = reports[count].latency.sla_attainment(self.sla_s)
            return attainment >= self.target_attainment

        def point(replicas: Optional[int], count: int) -> CapacityPoint:
            report = reports[count]
            return CapacityPoint(
                backend=backend_name,
                replicas=replicas,
                attainment=report.latency.sla_attainment(self.sla_s),
                p99_s=report.latency.p99_s,
                replica_seconds=report.replica_seconds,
                energy_per_request_joules=report.energy_per_request_joules,
                evaluated=tuple(evaluated),
            )

        probe = 1
        while not meets(probe):
            if probe >= self.max_replicas:
                return point(None, probe)
            probe = min(probe * 2, self.max_replicas)
        low, high = (probe // 2 + 1, probe) if probe > 1 else (1, 1)
        while low < high:
            middle = (low + high) // 2
            if meets(middle):
                high = middle
            else:
                low = middle + 1
        return point(high, high)

    def plan(
        self,
        workload: Workload,
        model: DLRMConfig,
        backends: Optional[Sequence[str]] = None,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> CapacityPlan:
        """Minimal fleets for every backend (default: all registered).

        Backends are given by registry name or alias; names resolving to
        one backend are planned once, in first-seen order, under the
        canonical name.  With ``jobs > 1`` the per-backend searches run in
        worker processes; plans are deterministic either way, so the
        answer is identical at any setting.
        """
        from repro.experiment.executor import GridExecutor

        if (duration_s is None) == (num_requests is None):
            raise SimulationError("provide exactly one of duration_s or num_requests")
        names = available_backends()
        if backends:
            names = tuple(dict.fromkeys(canonical_backend_name(name) for name in backends))
        search = functools.partial(
            self.plan_backend,
            model=model,
            workload=workload,
            duration_s=duration_s,
            num_requests=num_requests,
        )
        # jobs=1 (or one backend) runs the searches serially in-process.
        points = tuple(GridExecutor(self.jobs).map(search, names))
        return CapacityPlan(
            workload_name=workload.name,
            model_name=model.name,
            sla_s=self.sla_s,
            target_attainment=self.target_attainment,
            points=points,
        )
