"""Multi-replica serving: a request stream load balanced over several devices.

Capacity planning (examples/datacenter_provisioning.py) asks "how many
sockets do I need for a target load?".  This module answers the follow-up
question — the tail latency when that many replicas share the load.  Both
front-ends are a :class:`~repro.serving.fleet.Fleet` without controllers:
one :class:`~repro.serving.replica.ReplicaServer` per :class:`ReplicaSpec`
on the fleet's simulator, behind a dispatcher with live visibility into
queue depths.

* :class:`HeterogeneousCluster` — any mix of CPU-only / CPU-GPU / Centaur
  replicas, each with its own batching policy, behind any dispatcher.
* :class:`ClusterSimulator` — ``num_replicas`` identical devices
  (round-robin by default).  The elastic
  :class:`~repro.serving.autoscale.AutoscalingCluster` is one with a
  lifecycle controller armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.report import IncidentReport
    from repro.serving.sharded import ShardingStats

from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.dispatch import Dispatcher, RoundRobinDispatcher
from repro.serving.fleet import Fleet, resolve_runner
from repro.serving.metrics import LatencyDistribution, ServingReport
from repro.serving.replica import DesignPointRunner, ReplicaServer, ServiceModel
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica in a (possibly heterogeneous) fleet.

    Attributes:
        runner: Design-point runner backing the replica's device, or a
            backend-registry name (``"cpu"``, ``"centaur"``, ...) resolved
            against the cluster's ``system``.
        batching: Replica-local batching policy; ``None`` inherits the
            cluster default.
    """

    runner: Union[DesignPointRunner, str]
    batching: Optional[BatchingPolicy] = None


@dataclass(frozen=True)
class AutoscaleReport:
    """Elastic-fleet accounting of one autoscaled serving run.

    Attributes:
        policy: Name of the :class:`~repro.serving.autoscale.AutoscalerPolicy`.
        control_interval_s: Spacing of the controller's timed events.
        warmup_s: Commission-to-traffic delay each new replica paid.
        timeline: ``(time_s, commissioned_replicas)`` change points —
            commissioned means paid for: active, warming up, or draining.
        replica_seconds: Total commissioned time summed over the fleet (the
            replica-hours bill, in seconds).
        peak_replicas: Largest commissioned count the run reached.
        scale_up_events: Replica commissions (including drain reclaims).
        scale_down_events: Replica decommissions (including warm-up cancels).
        busy_energy_joules: Energy the devices spent executing batches.
        idle_energy_joules: Energy charged for commissioned-but-idle time
            (``idle_power_w`` times the non-busy replica-seconds).
        crashes: Replica crashes injected by a fault schedule.
        restarts: Crash restarts that recommissioned a replica.
    """

    policy: str
    control_interval_s: float
    warmup_s: float
    timeline: Tuple[Tuple[float, int], ...]
    replica_seconds: float
    peak_replicas: int
    scale_up_events: int
    scale_down_events: int
    busy_energy_joules: float
    idle_energy_joules: float
    crashes: int = 0
    restarts: int = 0

    @property
    def total_energy_joules(self) -> float:
        return self.busy_energy_joules + self.idle_energy_joules

    def replicas_at(self, time_s: float) -> int:
        """Commissioned replica count at a simulated time."""
        count = self.timeline[0][1]
        for change_s, changed in self.timeline:
            if change_s > time_s:
                break
            count = changed
        return count


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate serving behaviour of a replica group."""

    design_point: str
    model_name: str
    num_replicas: int
    per_replica: List[ServingReport]
    latency: LatencyDistribution
    dispatcher: str = "round-robin"
    autoscale: Optional[AutoscaleReport] = None
    #: Shard/cache accounting of a sharded group run (``None`` otherwise).
    sharding: Optional["ShardingStats"] = None
    #: Resilience accounting of a chaos-injected run (``None`` otherwise).
    incidents: Optional["IncidentReport"] = None

    @property
    def completed_requests(self) -> int:
        return sum(report.completed_requests for report in self.per_replica)

    @property
    def total_energy_joules(self) -> float:
        return sum(report.energy_joules for report in self.per_replica)

    @property
    def energy_per_request_joules(self) -> float:
        if self.completed_requests == 0:
            return 0.0
        return self.total_energy_joules / self.completed_requests

    @property
    def mean_utilization(self) -> float:
        return sum(report.device_utilization for report in self.per_replica) / len(
            self.per_replica
        )

    @property
    def makespan_s(self) -> float:
        """Time the slowest replica finished its last batch."""
        return max(report.makespan_s for report in self.per_replica)

    @property
    def replica_seconds(self) -> float:
        """The fleet's replica-hours bill, in seconds.

        A static fleet pays every replica for the whole run; an autoscaled
        fleet pays exactly the commissioned time its controller accounted.
        """
        if self.autoscale is not None:
            return self.autoscale.replica_seconds
        return self.num_replicas * self.makespan_s

    @property
    def device_utilization(self) -> float:
        """Alias so cluster and single-device reports render uniformly."""
        return self.mean_utilization

    @property
    def average_batch_size(self) -> float:
        """Mean executed batch size over every replica's batches."""
        total_batches = sum(
            replica.extra.get("num_batches", 0.0) for replica in self.per_replica
        )
        if total_batches == 0:
            return 0.0
        weighted = sum(
            replica.average_batch_size * replica.extra.get("num_batches", 0.0)
            for replica in self.per_replica
        )
        return weighted / total_batches


class HeterogeneousCluster(Fleet):
    """A mixed fleet of serving replicas behind a pluggable dispatcher.

    Args:
        specs: One :class:`ReplicaSpec` (or bare runner / backend name) per
            replica.  Backend names are resolved through the registry and
            shared: replicas naming the same backend run on one device
            instance (mirroring how a shared runner behaves).
        model: Served DLRM configuration.
        dispatcher: Routing policy; defaults to round-robin.
        batching: Default batching policy for specs that do not set one;
            defaults to a 2 ms window capped at 64.
        system: Hardware platform used to resolve backend names; required
            only when a spec names a backend instead of carrying a runner.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        specs: Sequence,
        model: DLRMConfig,
        dispatcher: Optional[Dispatcher] = None,
        batching: Optional[BatchingPolicy] = None,
        system: Optional[SystemConfig] = None,
        profile: bool = False,
    ):
        if not specs:
            raise SimulationError("a cluster needs at least one replica")
        fallback = batching if batching is not None else default_batching()
        resolved: dict = {}
        self.specs: List[ReplicaSpec] = []
        for spec in specs:
            if not isinstance(spec, ReplicaSpec):
                spec = ReplicaSpec(runner=spec)
            runner = spec.runner
            if isinstance(runner, str):
                if runner not in resolved:
                    resolved[runner] = resolve_runner(runner, system)
                runner = resolved[runner]
            self.specs.append(
                ReplicaSpec(runner, fallback if spec.batching is None else spec.batching)
            )
        super().__init__(
            model,
            dispatcher if dispatcher is not None else RoundRobinDispatcher(),
            profile=profile,
        )
        # One prediction cache per runner instance, shared across streams.
        self._caches = {}
        for spec in self.specs:
            self._caches.setdefault(id(spec.runner), {})

    @classmethod
    def from_backends(
        cls,
        backends: Sequence[str],
        model: DLRMConfig,
        system: SystemConfig,
        dispatcher: Optional[Dispatcher] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> "HeterogeneousCluster":
        """Build a fleet from backend-registry names, one replica per entry.

        Example::

            fleet = HeterogeneousCluster.from_backends(
                ["cpu", "cpu", "centaur"], DLRM2, HARPV2_SYSTEM,
                dispatcher=LeastLoadedDispatcher(),
            )
        """
        return cls(
            list(backends),
            model,
            dispatcher=dispatcher,
            batching=batching,
            system=system,
        )

    @property
    def num_replicas(self) -> int:
        return len(self.specs)

    @property
    def design_point(self) -> str:
        """The fleet's design-point mix, e.g. ``"CPU-only+Centaur"``."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.runner.design_point not in seen:
                seen.append(spec.runner.design_point)
        return "+".join(seen)

    # ------------------------------------------------------------------
    def _pool_size(self, faults) -> int:
        """Replicas a stream runs on (every spec, for a static fleet)."""
        return len(self.specs)

    def _replicas(
        self, sim: Simulator, faults, extra_models: Sequence[DLRMConfig] = ()
    ) -> List[ReplicaServer]:
        return [
            ReplicaServer(
                sim,
                ServiceModel(
                    spec.runner,
                    self.model,
                    self._caches[id(spec.runner)],
                    extra_models=extra_models,
                ),
                spec.batching,
                name=f"{spec.runner.design_point}:{index}",
            )
            for index, spec in enumerate(self.specs[: self._pool_size(faults)])
        ]

    def _report(self, replicas, label: str, allow_empty: bool) -> ClusterReport:
        """Per-replica reports (replicas that served) + pooled latencies.

        ``allow_empty`` covers chaos runs where the fault schedule killed
        every replica before anything was served (a total outage sheds
        the whole stream): the report is then built over zero replicas
        instead of treating the outage as a configuration error.
        """
        reports = [
            replica.build_report(label) for replica in replicas if replica.arrival_count
        ]
        if not reports and not allow_empty:
            raise SimulationError("no replica received any requests")
        latencies: List[float] = []
        for report in reports:
            latencies.extend(report.latency.samples_s.tolist())
        return ClusterReport(
            design_point=self.design_point,
            model_name=label,
            num_replicas=len(replicas),
            per_replica=reports,
            latency=LatencyDistribution(latencies, allow_empty=allow_empty),
            dispatcher=self.dispatcher.name,
        )


class ClusterSimulator(HeterogeneousCluster):
    """``num_replicas`` identical devices behind a dispatcher.

    Args:
        runner: Design-point runner shared by every replica (they are
            identical devices), or a backend-registry name resolved against
            ``system``.
        model: Served DLRM configuration.
        num_replicas: Number of devices behind the load balancer.
        batching: Per-replica batching policy (shared configuration).
        dispatcher: Routing policy; defaults to round-robin (the legacy
            behaviour).
        system: Hardware platform; required only when ``runner`` is a
            backend name.
    """

    def __init__(
        self,
        runner: Union[DesignPointRunner, str],
        model: DLRMConfig,
        num_replicas: int,
        batching: Optional[BatchingPolicy] = None,
        dispatcher: Optional[Dispatcher] = None,
        system: Optional[SystemConfig] = None,
        profile: bool = False,
    ):
        if num_replicas <= 0:
            raise SimulationError(f"num_replicas must be positive, got {num_replicas}")
        super().__init__(
            [ReplicaSpec(runner=runner) for _ in range(num_replicas)],
            model,
            dispatcher=dispatcher,
            batching=batching,
            system=system,
            profile=profile,
        )
        self.runner = self.specs[0].runner
        self.batching = batching
