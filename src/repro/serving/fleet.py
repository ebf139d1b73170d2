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

:meth:`Fleet.serve` builds the simulator, arms the controllers, drives the
stream once through :func:`~repro.serving.replica.drive_stream` and lets
each controller attach its accounting to the report.  A static fleet is a
fleet without controllers: its stream keeps the driver's chunked, buffered
pull, and is wrapped only when a controller reads it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule

from repro.backends.registry import resolve_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.serving.dispatch import Dispatcher
from repro.serving.replica import ReplicaServer, drive_stream
from repro.sim.engine import QueueSpec, Simulator
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


class _CountingStream:
    """A request iterator that counts its arrivals and notes its end.

    Exposing ``exhausted`` flips :func:`drive_stream` into its unbuffered
    one-pull-per-event mode, so ``count`` and ``exhausted`` follow the
    simulated clock: ``exhausted`` turns True when the last arrival fires,
    which is when controllers reading it between events expect it.
    """

    def __init__(self, iterator: Iterator[InferenceRequest]):
        self._iterator = iterator
        self.count = 0
        self.exhausted = False

    def __iter__(self) -> "_CountingStream":
        return self

    def __next__(self) -> InferenceRequest:
        try:
            request = next(self._iterator)
        except StopIteration:
            self.exhausted = True
            raise
        self.count += 1
        return request


class Controller:
    """Something a :class:`Fleet` arms on the engine for one stream.

    Every hook is optional; the defaults leave the run untouched.
    """

    #: True when the controller reads the stream's live ``count`` /
    #: ``exhausted``; the fleet then wraps the stream and sets :attr:`stream`.
    reads_stream = False
    stream: Optional[_CountingStream] = None
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
        queue: Event-queue selector forwarded to the engine
            (``"auto"``/``"heap"``/``"calendar"``, an instance, or a class).
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        model: DLRMConfig,
        dispatcher: Optional[Dispatcher] = None,
        queue: QueueSpec = "auto",
        profile: bool = False,
    ):
        self.model = model
        self.dispatcher = dispatcher
        self.queue = queue
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
        one arrival at a time, so stream length does not bound memory.
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

    def _dispatch(self, replicas: Sequence[ReplicaServer], request, now: float):
        """Ask the dispatcher for a replica, validating its choice."""
        index = self.dispatcher.select(replicas, request, now)
        if not 0 <= index < len(replicas):
            raise SimulationError(
                f"{self.dispatcher.name} selected invalid replica {index} "
                f"of {len(replicas)}"
            )
        return replicas[index]

    def _serve(self, requests, report_label, faults, **options):
        if isinstance(requests, Sequence):
            if not requests:
                raise SimulationError("cannot serve an empty request stream")
            requests = sorted(requests, key=lambda request: request.arrival_time_s)
        if faults is not None and faults.empty:
            faults = None
        sim = Simulator(queue=self.queue, profile=self.profile)
        replicas = self._replicas(sim, faults, **options)
        if self.dispatcher is None:
            (replica,) = replicas
            route = lambda request: replica  # noqa: E731
        else:
            self.dispatcher.reset()
            route = lambda request: self._dispatch(replicas, request, sim.now)  # noqa: E731
        controllers = self._controllers(sim, replicas, faults, **options)
        if faults is not None:
            # Imported lazily: repro.chaos builds on this package.
            from repro.chaos.injector import FaultInjector

            host = self._fault_host(replicas, controllers)
            controllers.append(FaultInjector(sim, faults, **host))
        stream = iter(requests)
        if any(controller.reads_stream for controller in controllers):
            stream = _CountingStream(stream)
        lost = None
        for controller in controllers:
            if controller.reads_stream:
                controller.stream = stream
            route = controller.route or route
            lost = controller.shed_count or lost
            controller.arm()
        outcome = drive_stream(sim, replicas, stream, route, lost=lost)
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
