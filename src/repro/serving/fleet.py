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
:class:`~repro.chaos.injector.FaultInjector`.  A serve hands every
controller the stream driver (whose live ``count`` and ``exhausted``
follow the simulated clock, and whose ``shed`` the injector credits), arms
them, drives the stream once and lets each controller attach its
accounting to the part's report.  The stream is arrival times:
:meth:`Fleet.serve_workload` drives the workload's times straight from its
arrival process, tagged with model names only for a traffic mix, while
:meth:`Fleet.serve` converts request objects to times once, at its edge
(see :func:`~repro.serving.replica.drive_stream`).

:meth:`FleetSpec.build` resolves a backend name and its warm-up hint into
the fleet that ``repro serve`` and every serving grid run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule
    from repro.serving.autoscale import AutoscalerPolicy
    from repro.serving.batching import BatchingPolicy
    from repro.sharding.cache import CacheConfig
    from repro.sharding.plan import ShardingStrategy
    from repro.workloads.arrivals import InferenceRequest
    from repro.workloads.updates import UpdateProcess

from repro.backends.registry import backend_registration, get_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.serving.cluster import ReplicaPool
from repro.serving.dispatch import Dispatcher
from repro.serving.replica import _StreamDriver, arrivals_of, tags_needed
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.workload import Workload


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
    policy: Optional["AutoscalerPolicy"] = None
    min_replicas: int = 1
    max_replicas: int = 8
    control_interval_s: float = 10e-3
    warmup_s: Optional[float] = None
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
        if self.policy is not None:
            from repro.serving.autoscale import AutoscalerPolicy

            if not isinstance(self.policy, AutoscalerPolicy):
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
        if spec.sharded:
            from repro.serving.sharded import ShardGroup as part
        else:
            part = ReplicaPool
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
        requests: Union[Sequence["InferenceRequest"], Iterable["InferenceRequest"]],
        report_label: Optional[str] = None,
        faults: Optional["FaultSchedule"] = None,
        **options,
    ):
        """Serve a stream of request objects and report latency statistics.

        ``requests`` may be an eager sequence (sorted internally) or a lazy
        time-ordered iterator — e.g. ``Workload.requests(...)``.  The
        objects are converted to arrival times once, at this edge (see
        :func:`~repro.serving.replica.arrivals_of`), so stream length does
        not bound memory.  ``faults`` injects a
        :class:`~repro.chaos.faults.FaultSchedule` (an empty or ``None``
        schedule arms nothing).  ``options`` go to the replica part: a pool
        takes ``extra_models`` (traffic-mix models priced beside the default
        one); a shard group takes ``trace`` (the row-ID model, uniform by
        default), ``trace_seed`` and ``update_seed``.  Prefer
        :meth:`serve_workload`, which wires them from the workload and
        drives its arrival times without building request objects.
        """
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        return self._serve(
            lambda tagged: arrivals_of(requests, tagged), report_label, faults, options
        )

    def _serve(self, arrivals, report_label, faults, options):
        """Drive ``arrivals(tagged)`` once through the replica part.

        ``tagged`` is True when the replicas price a traffic mix; the
        stream's items are then ``(time, model name)`` pairs, else times.
        Every controller gets the stream driver before it arms; the fault
        injector credits its sheds there, and an armed injector lets the
        report cover a total outage.
        """
        if faults is not None and faults.empty:
            faults = None
        sim = Simulator(profile=self.spec.profile)
        replicas, route, controllers, report = self.part.start(sim, faults, **options)
        for controller in controllers:
            route = controller.route or route
        tagged = tags_needed(replicas)
        driver = _StreamDriver(sim, arrivals(tagged), route, tagged)
        for controller in controllers:
            controller.stream = driver
            controller.arm()
        outcome = driver.drive(replicas)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        self.last_outcome = outcome
        result = report(report_label or self.model.name, faults is not None)
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

        The arrival process streams its times lazily, and no request object
        is built.  A multi-model traffic mix prices every mix model on every
        replica: its name stream tags the times, and batches execute one
        per-model segment at a time.  A shard group draws every batch's
        rows from the workload's trace model.
        """
        options = self.part.workload_options(workload, seed)
        label = workload.mix.label if workload.mix is not None else None
        seeds = workload.seeds(seed)
        times = workload.arrivals.arrivals(
            duration_s=duration_s, num_requests=num_requests, seed=seeds.arrivals
        )

        def arrivals(tagged: bool):
            return zip(times, workload.mix.name_stream(seeds.mix)) if tagged else times

        return self._serve(arrivals, label, faults, options)

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
        times = itertools.chain([first], stream)
        return self._serve(lambda tagged: times, None, None, {})
