"""Multi-replica serving: a request stream load balanced over several devices.

Capacity planning (examples/datacenter_provisioning.py) asks "how many
sockets do I need for a target load?".  This module answers the follow-up
question — the tail latency when that many replicas share the load.  A
:class:`ReplicaPool` is the replica part of every unsharded
:class:`~repro.serving.fleet.Fleet`: one
:class:`~repro.serving.replica.ReplicaServer` per :class:`ReplicaSpec` on
the fleet's simulator, behind a dispatcher with live visibility into queue
depths.  The pool repeats one template device ``replicas`` times
(round-robin by default), or mixes CPU-only / CPU-GPU / Centaur replicas,
each with its own batching policy.  A policy or a fault schedule makes a
template pool elastic: it then holds ``max_replicas`` slots, and an
:class:`~repro.serving.autoscale._AutoscaleController` adjusts the active
subset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.report import IncidentReport
    from repro.serving.autoscale import AutoscaleReport
    from repro.serving.fleet import FleetSpec
    from repro.serving.sharded import ShardingStats

from repro.backends.registry import resolve_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.dispatch import RoundRobinDispatcher
from repro.serving.metrics import LatencyDistribution, ServingReport
from repro.serving.replica import DesignPointRunner, ReplicaServer, ServiceModel
from repro.sim.engine import Simulator


def resolve_runner(runner, system: Optional[SystemConfig]):
    """A design-point runner, or the backend a registry name names on ``system``."""
    if not isinstance(runner, str):
        return runner
    if system is None:
        raise SimulationError(
            f"backend {runner!r} is named without a system configuration to "
            "resolve it against"
        )
    return resolve_backend(runner, system)


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica in a (possibly heterogeneous) fleet.

    Attributes:
        runner: Design-point runner backing the replica's device, or a
            backend-registry name (``"cpu"``, ``"centaur"``, ...) resolved
            against the fleet's ``system``.
        batching: Replica-local batching policy; ``None`` inherits the
            fleet default.
    """

    runner: Union[DesignPointRunner, str]
    batching: Optional[BatchingPolicy] = None


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
        """Mean device utilization; 0 when no replica served (a total outage)."""
        if not self.per_replica:
            return 0.0
        return sum(report.device_utilization for report in self.per_replica) / len(
            self.per_replica
        )

    @property
    def makespan_s(self) -> float:
        """Time the slowest replica finished its last batch (0 when none served)."""
        return max((report.makespan_s for report in self.per_replica), default=0.0)

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
        total_batches = sum(len(replica.executed_batches) for replica in self.per_replica)
        if total_batches == 0:
            return 0.0
        weighted = sum(
            replica.average_batch_size * len(replica.executed_batches)
            for replica in self.per_replica
        )
        return weighted / total_batches


class ReplicaPool:
    """The plain replicas of a :class:`~repro.serving.fleet.Fleet`.

    A lone replica without a dispatcher is routed to directly and reports
    a :class:`~repro.serving.metrics.ServingReport`; every other pool sits
    behind its dispatcher (round-robin by default) and reports a
    :class:`ClusterReport`.

    Args:
        runner_or_specs: The template device every replica runs (a runner
            or backend-registry name), or a sequence of :class:`ReplicaSpec`
            (or bare runners / names), one per replica of a mixed fleet.
            Backend names are resolved through the registry and shared:
            replicas naming the same backend run on one device instance.
        model: Served DLRM configuration.
        spec: The fleet's recipe: sizing, batching, dispatcher and the
            elastic fields.
        system: Hardware platform used to resolve backend names.
    """

    def __init__(
        self,
        runner_or_specs: Union[DesignPointRunner, str, Sequence],
        model: DLRMConfig,
        spec: "FleetSpec",
        system: Optional[SystemConfig],
    ):
        mixed = isinstance(runner_or_specs, (list, tuple))
        entries = runner_or_specs if mixed else [runner_or_specs]
        if not entries:
            raise SimulationError("a fleet needs at least one replica")
        fallback = spec.batching if spec.batching is not None else default_batching()
        resolved: dict = {}
        specs: List[ReplicaSpec] = []
        for entry in entries:
            if not isinstance(entry, ReplicaSpec):
                entry = ReplicaSpec(runner=entry)
            runner = entry.runner
            if isinstance(runner, str):
                if runner not in resolved:
                    resolved[runner] = resolve_runner(runner, system)
                runner = resolved[runner]
            specs.append(
                ReplicaSpec(runner, fallback if entry.batching is None else entry.batching)
            )
        self.model = model
        self.spec = spec
        #: The template device of a one-runner pool (``None`` when mixed).
        self.runner = None if mixed else specs[0].runner
        #: One resolved spec per replica of a static serve.
        self.specs = specs if mixed else specs * spec.replicas
        self.single = not mixed and spec.replicas == 1 and spec.dispatcher is None
        self.dispatcher = (
            spec.dispatcher if spec.dispatcher is not None else RoundRobinDispatcher()
        )
        # One prediction cache per runner instance, shared across streams.
        self._caches = {id(entry.runner): {} for entry in specs}
        if spec.policy is not None:
            self.start_replicas()

    @property
    def design_point(self) -> str:
        """The fleet's design-point mix, e.g. ``"CPU-only+Centaur"``."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.runner.design_point not in seen:
                seen.append(spec.runner.design_point)
        return "+".join(seen)

    def start_replicas(self) -> int:
        """Active replicas at time zero of an elastic serve: ``replicas``, or
        the ``min_replicas`` floor when ``replicas`` is left at 1."""
        spec = self.spec
        if self.runner is None:
            raise ConfigurationError(
                "an elastic fleet (a policy or a fault schedule) scales one "
                "template device; a mixed fleet serves statically"
            )
        start = spec.replicas if spec.replicas > 1 else spec.min_replicas
        if not spec.min_replicas <= start <= spec.max_replicas:
            raise SimulationError(
                f"an elastic fleet starts with replicas ({start}), which must "
                f"lie in [{spec.min_replicas}, {spec.max_replicas}]"
            )
        return start

    @functools.cached_property
    def capacity_qps(self) -> float:
        """Saturation throughput of one template replica, priced once.

        The batch-size sweep behind it runs on the first policy-driven serve
        of this pool and is memoized — grids and search loops that serve
        many streams through one fleet pay it a single time.
        """
        service = ServiceModel(self.runner, self.model, self._caches[id(self.runner)])
        return service.saturation_throughput()

    def workload_options(self, workload, seed: int):
        """Serve options a workload implies: its traffic mix's models."""
        return {"extra_models": workload.models}

    def start(self, sim: Simulator, faults, extra_models: Sequence[DLRMConfig] = ()):
        """Build one stream's replicas, route and controllers.

        A policy or a fault schedule arms the autoscale controller over
        ``max_replicas`` slots (restarting a crashed replica is a
        provisioning act, so a static fleet under faults is a policy-less
        elastic one); otherwise the stream runs on the static replicas.
        """
        elastic = self.spec.elastic(faults)
        specs = self.specs
        if elastic:
            start = self.start_replicas()
            specs = [specs[0]] * self.spec.max_replicas
        replicas = [
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
            for index, spec in enumerate(specs)
        ]
        report = functools.partial(self._report, replicas)
        if elastic:
            from repro.serving.autoscale import _AutoscaleController

            self.dispatcher.reset()
            controller = _AutoscaleController(self, sim, replicas, start)
            controllers = [controller]
            if faults is not None:
                # Imported lazily: repro.chaos builds on this package.
                from repro.chaos.injector import FaultInjector

                controllers.append(FaultInjector(sim, faults, controller=controller))
            return replicas, controller.route, controllers, report
        if self.single:
            (replica,) = replicas
            return (
                replicas,
                lambda arrival_s: replica,
                [],
                lambda label, allow_empty: replica.build_report(label),
            )
        self.dispatcher.reset()
        return replicas, self.dispatcher.router(replicas, sim), [], report

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
        # The empty leading array lets a total outage pool zero replicas.
        latencies = np.concatenate(
            [np.empty(0)] + [report.ordered_latency_s for report in reports]
        )
        return ClusterReport(
            design_point=self.design_point,
            model_name=label,
            num_replicas=len(replicas),
            per_replica=reports,
            latency=LatencyDistribution(latencies, allow_empty=allow_empty),
            dispatcher=self.dispatcher.name,
        )
