"""The one serving front-end: a fleet of replicas on one event simulator.

A :class:`Fleet` is built as ``Fleet(runner_or_specs, model, spec, system)``
and holds one **replica part**, chosen once from its :class:`FleetSpec`:

* a :class:`~repro.serving.cluster.ReplicaPool` of plain
  :class:`~repro.serving.replica.ReplicaServer` replicas — one device, a
  fleet of identical devices behind a dispatcher, or a mixed fleet with one
  :class:`~repro.serving.cluster.ReplicaSpec` per replica; a policy or a
  fault schedule makes a pool elastic;
* a :class:`~repro.serving.sharded.ShardGroup` whose one
  :class:`~repro.serving.sharded.ShardedReplicaServer` fans every batch
  out over the embedding shards and hot-row cache tiers.

For each stream the part builds the replicas, their route and the
controllers (:class:`~repro.serving.replica.Controller`) to arm: the autoscaler's
lifecycle controller, the sharded update driver and the chaos
:class:`~repro.chaos.injector.FaultInjector`.  :meth:`Fleet.serve` hands
every controller the stream driver (whose live ``count`` and
``exhausted`` follow the simulated clock), arms them, drives the stream
once (see :func:`~repro.serving.replica.drive_stream`) and lets each
controller attach its accounting to the part's report.

:meth:`FleetSpec.build` resolves a backend name and its warm-up hint into
the fleet that ``repro serve`` and every serving grid run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule
    from repro.serving.batching import BatchingPolicy
    from repro.sharding.cache import CacheConfig
    from repro.sharding.plan import ShardingStrategy
    from repro.workloads.updates import UpdateProcess

from repro.backends.registry import backend_registration, get_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.serving.autoscale import AutoscalerPolicy
from repro.serving.cluster import ReplicaPool
from repro.serving.dispatch import Dispatcher
from repro.serving.replica import _StreamDriver
from repro.serving.sharded import ShardGroup
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import InferenceRequest, PoissonArrivals
from repro.workloads.workload import Workload


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
    """Recipe for one :class:`Fleet`: its sizing, tiers and control fields.

    The recipe picks the fleet's replica part once:

    * a shard group when ``shards`` is set or any cache or update tier is
      (``shards=None`` with a tier set is one shard); it reads the shard,
      tier and ``batching`` fields;
    * else a replica pool of ``replicas`` devices behind ``dispatcher``
      (round-robin by default; one replica without a dispatcher is routed
      to directly).  A ``policy``, or a fault schedule at serve time, makes
      the pool elastic: ``max_replicas`` slots, of which ``replicas`` (the
      ``min_replicas`` floor when ``replicas`` is 1) are active at time
      zero, under the control fields.

    ``warmup_s=None`` takes the backend's registered provisioning hint in
    :meth:`build` (zero for a fleet built directly).
    """

    replicas: int = 1
    batching: Optional["BatchingPolicy"] = None
    dispatcher: Optional[Dispatcher] = None
    policy: Optional[AutoscalerPolicy] = None
    min_replicas: int = 1
    max_replicas: int = 8
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
        if self.min_replicas <= 0:
            raise SimulationError(f"min_replicas must be positive, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise SimulationError(
                f"max_replicas ({self.max_replicas}) must be >= min_replicas "
                f"({self.min_replicas})"
            )
        if self.control_interval_s <= 0:
            raise SimulationError(
                f"control_interval_s must be positive, got {self.control_interval_s}"
            )
        if self.warmup_s is not None and self.warmup_s < 0:
            raise SimulationError(f"warmup_s must be non-negative, got {self.warmup_s}")
        if self.idle_power_w < 0:
            raise SimulationError(
                f"idle_power_w must be non-negative, got {self.idle_power_w}"
            )
        if self.policy is not None and not isinstance(self.policy, AutoscalerPolicy):
            raise SimulationError(
                f"policy must be an AutoscalerPolicy or None, got {self.policy!r}"
            )

    @property
    def sharded(self) -> bool:
        """True when the fleet's replica part is a shard group."""
        tiers = (self.cache, self.shared_cache, self.updates)
        return self.shards is not None or any(tier is not None for tier in tiers)

    def elastic(self, faults=None) -> bool:
        """True when a serve under ``faults`` arms the autoscale controller."""
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

    def build(self, backend_name: str, model: DLRMConfig, system: SystemConfig) -> "Fleet":
        """The fleet serving ``model`` on ``backend_name`` devices."""
        spec = self
        if spec.warmup_s is None:
            hint = backend_registration(backend_name).capabilities.provision_warmup_s
            spec = replace(spec, warmup_s=hint)
        return Fleet(get_backend(backend_name, system), model, spec, system)


class Fleet:
    """Serving replicas on one simulator: the one serving front-end.

    Args:
        runner_or_specs: A design-point runner or backend-registry name
            every replica runs, or a sequence of
            :class:`~repro.serving.cluster.ReplicaSpec` (or bare runners /
            names), one per replica of a mixed fleet.
        model: Served DLRM configuration (the report's default label).
        spec: The fleet's recipe; see :class:`FleetSpec`.
        system: Hardware platform that resolves backend names and prices
            cross-shard links (a shard group defaults to its runner's).
    """

    def __init__(
        self,
        runner_or_specs,
        model: DLRMConfig,
        spec: FleetSpec = FleetSpec(),
        system: Optional[SystemConfig] = None,
    ):
        self.model = model
        self.spec = spec
        part = ShardGroup if spec.sharded else ReplicaPool
        #: The replica part: a :class:`~repro.serving.cluster.ReplicaPool`
        #: or a :class:`~repro.serving.sharded.ShardGroup`.
        self.part = part(runner_or_specs, model, spec, system)
        #: Engine profile of the most recent serve (``None`` until the first
        #: profiled run).
        self.last_profile: Optional[SimProfile] = None
        #: Conservation counters of the most recent serve.
        self.last_outcome = None

    @property
    def design_point(self) -> str:
        """The fleet's design-point mix, e.g. ``"CPU-only+Centaur"``."""
        return self.part.design_point

    def serve(
        self,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        report_label: Optional[str] = None,
        faults: Optional["FaultSchedule"] = None,
        **options,
    ):
        """Serve a request stream and report latency statistics.

        ``requests`` may be an eager sequence (sorted internally) or a lazy
        time-ordered iterator — e.g. ``Workload.requests(...)`` — pulled
        in constant-size chunks, so stream length does not bound memory.
        ``faults`` injects a :class:`~repro.chaos.faults.FaultSchedule` (an
        empty or ``None`` schedule arms nothing).  ``options`` go to the
        replica part: a pool takes ``extra_models`` (traffic-mix models
        priced beside the default one); a shard group takes ``trace`` (the
        row-ID model, uniform by default), ``trace_seed`` and
        ``update_seed``.  Prefer :meth:`serve_workload`, which wires them
        from the workload.
        """
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        if faults is not None and faults.empty:
            faults = None
        sim = Simulator(profile=self.spec.profile)
        replicas, route, controllers, report = self.part.start(sim, faults, **options)
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
        result = report(report_label or self.model.name, lost is not None)
        for controller in controllers:
            result = controller.finish(result, sim.now)
        return result

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
        per-model segment at a time.  A shard group draws every batch's
        rows from the workload's trace model.
        """
        options = self.part.workload_options(workload, seed)
        label = workload.mix.label if workload.mix is not None else None
        requests = workload.requests(
            duration_s=duration_s, num_requests=num_requests, seed=seed
        )
        return self.serve(requests, label, faults, **options)

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
