"""One serve loop behind every serving front-end.

A :class:`Fleet` is a set of serving replicas on one event simulator, in
three parts:

* a **replica factory** (:meth:`Fleet._replicas`): plain
  :class:`~repro.serving.replica.ReplicaServer` replicas, or the one
  :class:`~repro.serving.sharded.ShardedReplicaServer` of a shard group;
* a **dispatcher** that picks each arrival's replica at arrival time
  (``None`` for a one-replica fleet);
* **controllers** (:class:`Controller`) armed on the engine before the
  stream starts: the autoscaler's lifecycle controller, the sharded update
  driver and the chaos :class:`~repro.chaos.injector.FaultInjector`.

:meth:`Fleet.serve` builds the simulator, hands every controller the
stream driver (whose live ``count`` and ``exhausted`` follow the simulated
clock), arms the controllers, drives the stream once (see
:func:`~repro.serving.replica.drive_stream`) and lets each controller
attach its accounting to the report.  A static fleet is a fleet without
controllers.

A :class:`FleetSpec` is the picklable recipe for one front-end: it gates a
backend's capabilities and builds the fleet that ``repro serve`` and every
serving grid run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional
from typing import Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule
    from repro.serving.autoscale import AutoscalerPolicy
    from repro.serving.batching import BatchingPolicy
    from repro.sharding.cache import CacheConfig
    from repro.sharding.plan import ShardingStrategy
    from repro.workloads.updates import UpdateProcess

from repro.backends.registry import backend_registration, get_backend, resolve_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.serving.dispatch import Dispatcher
from repro.serving.replica import ReplicaServer, _StreamDriver
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import InferenceRequest, PoissonArrivals
from repro.workloads.workload import Workload


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


class Controller:
    """Something a :class:`Fleet` arms on the engine for one stream.

    Every hook is optional; the defaults leave the run untouched.
    """

    #: The stream's driver, set before :meth:`arm`: its live ``count`` and
    #: ``exhausted`` follow the simulated clock.
    stream: Optional[_StreamDriver] = None
    #: Takes over routing from the fleet's dispatcher when set.
    route: Optional[Callable[[InferenceRequest], ReplicaServer]] = None
    #: Requests shed so far; relaxes the stream's conservation check.
    shed_count: Optional[Callable[[], int]] = None

    def arm(self) -> None:
        """Schedule the first events (controllers arm in list order)."""

    def finish(self, report, horizon_s: float):
        """Return ``report`` with this controller's accounting attached."""
        return report


class Fleet:
    """Serving replicas on one simulator: factory, dispatcher, controllers.

    Subclasses configure the three parts through :meth:`_replicas`,
    :meth:`_controllers` and :meth:`_report`; :meth:`serve` is the one
    serve loop.

    Args:
        model: Served DLRM configuration (the report's default label).
        dispatcher: Routing policy; ``None`` for a one-replica fleet.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        model: DLRMConfig,
        dispatcher: Optional[Dispatcher] = None,
        profile: bool = False,
    ):
        self.model = model
        self.dispatcher = dispatcher
        self.profile = profile
        #: Engine profile of the most recent serve (``None`` until the first
        #: profiled run).
        self.last_profile: Optional[SimProfile] = None
        #: Conservation counters of the most recent serve.
        self.last_outcome = None

    # -- configuration hooks -------------------------------------------
    def _replicas(self, sim: Simulator, faults, **options) -> List[ReplicaServer]:
        """Build the replicas one stream runs on."""
        raise NotImplementedError

    def _controllers(self, sim: Simulator, replicas, faults, **options) -> List[Controller]:
        """Controllers to arm before a fault injector (none: a static fleet)."""
        return []

    def _fault_host(self, replicas, controllers) -> Dict[str, object]:
        """What a :class:`~repro.chaos.injector.FaultInjector` drives."""
        raise ConfigurationError(
            f"{type(self).__name__} takes no fault schedule; serve it through "
            "an AutoscalingCluster or a ShardedReplicaGroup"
        )

    def _report(self, replicas, label: str, allow_empty: bool):
        """Summarize the drained replicas (``allow_empty``: an injector may
        have shed every request)."""
        raise NotImplementedError

    def _workload_options(self, workload: Workload, seed: int) -> Dict[str, object]:
        """Serve options a workload implies (its traffic mix's models)."""
        return {"extra_models": workload.models}

    # -- serving -------------------------------------------------------
    def serve(
        self,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        extra_models: Sequence[DLRMConfig] = (),
        report_label: Optional[str] = None,
        faults: Optional["FaultSchedule"] = None,
    ):
        """Serve a request stream and report latency statistics.

        ``requests`` may be an eager sequence (sorted internally) or a lazy
        time-ordered iterator — e.g. ``Workload.requests(...)`` — pulled
        in constant-size chunks, so stream length does not bound memory.
        ``extra_models`` prices traffic-mix models beside the default one;
        ``faults`` injects a :class:`~repro.chaos.faults.FaultSchedule` on
        the fleets that host an injector (an empty or ``None`` schedule arms
        nothing).
        """
        return self._serve(requests, report_label, faults, extra_models=extra_models)

    def serve_workload(
        self,
        workload: Workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
        faults: Optional["FaultSchedule"] = None,
    ):
        """Serve a :class:`~repro.workloads.Workload` stream end to end.

        The arrival process streams lazily; a multi-model traffic mix
        prices every mix model on every replica, and batches execute one
        per-model segment at a time.
        """
        options = self._workload_options(workload, seed)
        label = workload.mix.label if workload.mix is not None else None
        requests = workload.requests(
            duration_s=duration_s, num_requests=num_requests, seed=seed
        )
        return self._serve(requests, label, faults, **options)

    def serve_poisson(self, rate_qps: float, duration_s: float, seed: int = 0):
        """Serve a Poisson arrival stream of the given rate and duration."""
        stream = PoissonArrivals(rate_qps=rate_qps).arrivals(
            duration_s=duration_s, seed=seed
        )
        first = next(stream, None)
        if first is None:
            raise SimulationError(
                f"no requests arrived in {duration_s}s at {rate_qps} QPS; "
                "increase the duration or the rate"
            )
        return self.serve(itertools.chain([first], stream))

    def _serve(self, requests, report_label, faults, **options):
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        if faults is not None and faults.empty:
            faults = None
        sim = Simulator(profile=self.profile)
        replicas = self._replicas(sim, faults, **options)
        if self.dispatcher is None:
            (replica,) = replicas
            route = lambda request: replica  # noqa: E731
        else:
            self.dispatcher.reset()
            route = self.dispatcher.router(replicas, sim)
        controllers = self._controllers(sim, replicas, faults, **options)
        if faults is not None:
            # Imported lazily: repro.chaos builds on this package.
            from repro.chaos.injector import FaultInjector

            host = self._fault_host(replicas, controllers)
            controllers.append(FaultInjector(sim, faults, **host))
        lost = None
        for controller in controllers:
            route = controller.route or route
            lost = controller.shed_count or lost
        driver = _StreamDriver(sim, requests, route, lost=lost)
        for controller in controllers:
            controller.stream = driver
            controller.arm()
        outcome = driver.drive(replicas)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        self.last_outcome = outcome
        report = self._report(
            replicas, report_label or self.model.name, allow_empty=lost is not None
        )
        for controller in controllers:
            report = controller.finish(report, sim.now)
        return report


def check_workload_support(backend_name: str, workload: Workload) -> None:
    """Raise :class:`ConfigurationError` when a backend cannot serve a workload.

    This is the registry-level gate: the backend's registered capability
    flags are matched against the workload's requirements before any device
    model runs.
    """
    registration = backend_registration(backend_name)
    reason = workload.incompatibility(registration.capabilities)
    if reason is not None:
        raise ConfigurationError(
            f"backend {registration.name!r} cannot serve workload "
            f"{workload.name!r}: {reason}"
        )


def check_elastic_support(backend_name: str) -> None:
    """Raise :class:`ConfigurationError` when a backend cannot scale elastically."""
    registration = backend_registration(backend_name)
    if not registration.capabilities.supports_elastic_scaling:
        raise ConfigurationError(
            f"backend {registration.name!r} does not support elastic scaling; "
            "serve it through a static fleet instead"
        )


def check_sharding_support(backend_name: str) -> None:
    """Raise :class:`ConfigurationError` when a backend cannot shard tables."""
    registration = backend_registration(backend_name)
    if not registration.capabilities.supports_sharding:
        raise ConfigurationError(
            f"backend {registration.name!r} cannot partition its embedding "
            "tables; serve it unsharded instead"
        )


@dataclass(frozen=True)
class FleetSpec:
    """Recipe for one serving front-end, built per backend and model.

    Every field is a constructor argument of a front-end; :meth:`build`
    picks the front-end from them:

    * a :class:`~repro.serving.sharded.ShardedReplicaGroup` when ``shards``
      is set or any cache or update tier is (``shards=None`` with a tier set
      is one shard);
    * else an :class:`~repro.serving.autoscale.AutoscalingCluster` when
      there is a ``policy`` or a fault schedule: restarting a crashed
      replica is a provisioning act, so a static fleet under faults is a
      policy-less elastic one;
    * else a :class:`~repro.serving.simulator.ServingSimulator` for one
      replica and a :class:`~repro.serving.cluster.ClusterSimulator` for
      more.

    Fields the chosen front-end has no use for are ignored: a shard group
    is one logical replica, and only elastic fleets read the sizing and
    control fields.  ``warmup_s=None`` takes the backend's registered
    provisioning hint.
    """

    replicas: int = 1
    batching: Optional["BatchingPolicy"] = None
    dispatcher: Optional[Dispatcher] = None
    policy: Optional["AutoscalerPolicy"] = None
    min_replicas: int = 1
    max_replicas: int = 8
    initial_replicas: Optional[int] = None
    control_interval_s: float = 10e-3
    warmup_s: Optional[float] = None
    idle_power_w: float = 0.0
    shards: Optional[int] = None
    strategy: Union[str, "ShardingStrategy"] = "table"
    cache: Optional["CacheConfig"] = None
    shared_cache: Optional["CacheConfig"] = None
    updates: Optional["UpdateProcess"] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise SimulationError(f"replicas must be positive, got {self.replicas}")

    @property
    def sharded(self) -> bool:
        """True when :meth:`build` returns a shard group."""
        tiers = (self.cache, self.shared_cache, self.updates)
        return self.shards is not None or any(tier is not None for tier in tiers)

    def elastic(self, faults=None) -> bool:
        """True when :meth:`build` returns an autoscaling cluster."""
        return not self.sharded and (self.policy is not None or faults is not None)

    def check(self, backend_name: str, workloads: Iterable[Workload], faults=None) -> None:
        """Gate a backend's registered capabilities against this fleet.

        Raises:
            ConfigurationError: When the backend cannot shard, cannot scale
                elastically or cannot serve one of ``workloads``.
        """
        if self.sharded:
            check_sharding_support(backend_name)
        elif self.elastic(faults):
            check_elastic_support(backend_name)
        for workload in workloads:
            check_workload_support(backend_name, workload)

    def build(self, backend_name: str, model: DLRMConfig, system: SystemConfig, faults=None):
        """The front-end serving ``model`` on ``backend_name`` devices.

        ``faults`` is the schedule the fleet will serve under; only whether
        there is one matters here.
        """
        backend = get_backend(backend_name, system)
        if self.sharded:
            from repro.serving.sharded import ShardedReplicaGroup

            return ShardedReplicaGroup(
                backend,
                model,
                num_shards=1 if self.shards is None else self.shards,
                strategy=self.strategy,
                cache=self.cache,
                batching=self.batching,
                system=system,
                profile=self.profile,
                updates=self.updates,
                shared_cache=self.shared_cache,
            )
        if self.elastic(faults):
            from repro.serving.autoscale import AutoscalingCluster

            warmup_s = self.warmup_s
            if warmup_s is None:
                warmup_s = backend_registration(backend_name).capabilities.provision_warmup_s
            return AutoscalingCluster(
                backend,
                model,
                policy=self.policy,
                min_replicas=self.min_replicas,
                max_replicas=self.max_replicas,
                initial_replicas=self.initial_replicas,
                control_interval_s=self.control_interval_s,
                warmup_s=warmup_s,
                idle_power_w=self.idle_power_w,
                dispatcher=self.dispatcher,
                batching=self.batching,
                profile=self.profile,
            )
        if self.replicas == 1:
            from repro.serving.simulator import ServingSimulator

            return ServingSimulator(
                backend, model, batching=self.batching, profile=self.profile
            )
        from repro.serving.cluster import ClusterSimulator

        return ClusterSimulator(
            backend,
            model,
            num_replicas=self.replicas,
            batching=self.batching,
            dispatcher=self.dispatcher,
            profile=self.profile,
        )
