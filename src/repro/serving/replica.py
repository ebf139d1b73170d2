"""Event-driven serving replica: one batching queue + one device on a Simulator.

This is the core the serving stack is built on.  A :class:`ReplicaServer`
lives on a shared :class:`repro.sim.engine.Simulator`; arrivals (merged
beside the event heap), batch-close timers, device starts and completions
are all events, so batching policies can react to the queue as it evolves
(close when the device idles, shrink the window as the queue deepens) and
dispatchers can inspect live replica state at each arrival.

The replica reproduces the legacy replay semantics exactly for open-loop
policies: a batch closed at time ``t`` enters a FIFO device queue, and the
device serves batches in close order starting each at
``max(close_time, device_free_time)`` — the same ``start = max(ready,
free)`` recurrence the legacy simulator iterated, now emerging from event
order.

Memory discipline: an arrival is its time.  A replica holds the arrival
times of the requests in flight (pending batch, closed-batch queue,
executing batch), plus a parallel list of model tags only when its service
prices a multi-model traffic mix; no per-request object exists on the
serve path, so a multi-million-request streaming run (see
:func:`drive_stream`) stays O(max in-flight) in resident floats.  What a
report needs about the past is one completion record: an
:class:`ExecutedBatch` per executed segment and, per completed request, its
arrival time as an 8-byte double.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.results import InferenceResult
from repro.serving.batching import BatchingPolicy, BatchSignal
from repro.serving.metrics import ExecutedBatch, ServingReport
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.workloads.arrivals import InferenceRequest

#: The model tags of a batch's arrivals, in step with its times; ``None``
#: for a single-model service, which never reads them.
Tags = Optional[List[Optional[str]]]


class DesignPointRunner(Protocol):
    """The slice of the runner interface the serving simulation needs."""

    @property
    def design_point(self) -> str: ...

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult: ...


class ServiceModel:
    """Caches the design-point runner's per-batch-size predictions.

    Runner calls are deterministic in ``(model, batch_size)``, so one cache
    per (runner, model-set) pair serves every replica and dispatcher
    estimate.  Beyond the default model, a service may carry *extra* models
    (one per :class:`~repro.workloads.mix.TrafficMix` component) addressed
    by name, which is what lets one replica price multi-model traffic.
    """

    def __init__(
        self,
        runner: DesignPointRunner,
        model: DLRMConfig,
        cache: Optional[Dict[Tuple[str, int], InferenceResult]] = None,
        extra_models: Sequence[DLRMConfig] = (),
    ):
        self.runner = runner
        self.model = model
        self._models: Dict[Optional[str], DLRMConfig] = {None: model, model.name: model}
        for extra in extra_models:
            existing = self._models.get(extra.name)
            if existing is not None and existing != extra:
                raise SimulationError(
                    f"two different model configurations share the name {extra.name!r}"
                )
            self._models[extra.name] = extra
        self._cache: Dict[Tuple[str, int], InferenceResult] = (
            cache if cache is not None else {}
        )
        #: True when the service prices more than one model configuration
        #: (checked on every closed batch, so resolved once here).
        self.multi_model: bool = (
            len({config.name for config in self._models.values()}) > 1
        )

    @property
    def design_point(self) -> str:
        return self.runner.design_point

    def model_for(self, model_name: Optional[str]) -> DLRMConfig:
        config = self._models.get(model_name)
        if config is None:
            raise SimulationError(
                f"replica cannot price model {model_name!r}; it serves: "
                f"{sorted(name for name in self._models if name)}"
            )
        return config

    def result(self, batch_size: int, model_name: Optional[str] = None) -> InferenceResult:
        config = self.model_for(model_name)
        key = (config.name, batch_size)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.runner.run(config, batch_size)
            self._cache[key] = cached
        return cached

    def saturation_throughput(self, max_batch_size: int = 128) -> float:
        """Upper bound on sustainable QPS: best power-of-two batch throughput."""
        if max_batch_size <= 0:
            raise SimulationError(f"max_batch_size must be positive, got {max_batch_size}")
        best = 0.0
        batch_size = 1
        while batch_size <= max_batch_size:
            best = max(best, self.result(batch_size).throughput_samples_per_second)
            batch_size *= 2
        return best


class ReplicaServer:
    """One device behind a batching queue, driven by simulator events.

    Args:
        sim: The shared event simulator.
        service: Cached runner predictions for this replica's device.
        batching: Batching policy (immutable; may be shared across replicas).
        name: Label used on scheduled events (debugging/tracing).
    """

    def __init__(
        self,
        sim: Simulator,
        service: ServiceModel,
        batching: BatchingPolicy,
        name: str = "replica",
    ):
        self.sim = sim
        self.service = service
        self.batching = batching
        self.name = name
        # Event labels, formatted once per replica rather than per batch.
        self._close_label = f"{name}:batch-close"
        self._complete_label = f"{name}:complete"
        # Open batch: the arrival times of the queued requests, oldest first
        # (what the batching hooks read), and their model tags in step when
        # the service prices a traffic mix.
        self._pending: List[float] = []
        self._pending_tags: Tags = [] if service.multi_model else None
        self._close_timer: Optional[Event] = None
        # Closed batches waiting for the device, FIFO: (close time, times, tags).
        self._batch_queue: Deque[Tuple[float, List[float], Tags]] = deque()
        self._busy = False
        self._outstanding = 0
        self.device_free_at = 0.0
        self.arrival_count = 0
        self.last_finish_s = 0.0
        # The completion record: one boundary record per executed segment
        # (appended when it starts, rolled back if a crash kills it) and the
        # arrival times of completed requests, in completion order.
        self.executed: List[ExecutedBatch] = []
        self.completed_arrival_s = array("d")
        self.busy_time_s = 0.0
        self.energy_joules = 0.0
        #: Invoked with the completed-request count of each finished batch;
        #: installed by :func:`drive_stream` to track global conservation.
        self.completion_listener: Optional[Callable[[int], None]] = None
        #: Multiplies every executed segment's duration (chaos brownouts
        #: inflate it above 1.0; the fault-free value of exactly 1.0 skips
        #: the multiply so untouched runs stay bit-identical).
        self.latency_multiplier = 1.0
        # In-flight execution state a chaos crash() needs to roll back:
        # the scheduled completion event and one tuple of (start, finish,
        # previous last_finish_s, busy/energy deltas, segment count, batch
        # times, batch tags).
        self._completion_event: Optional[Event] = None
        self._executing: Optional[
            Tuple[float, float, float, float, float, int, List[float], Tags]
        ] = None

    # -- live state inspected by dispatchers ---------------------------
    @property
    def device_idle(self) -> bool:
        """True when the device has nothing running and nothing queued."""
        return not self._busy and not self._batch_queue

    @property
    def outstanding(self) -> int:
        """Requests routed here that have not yet completed.

        Maintained as a counter (incremented per arrival, decremented per
        completed batch) so dispatchers and autoscalers can poll it per
        event without re-summing the batch queue.
        """
        return self._outstanding

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def completed_count(self) -> int:
        """Requests completed here: the length of the completion record."""
        return len(self.completed_arrival_s)

    def estimated_backlog_s(self, now: float) -> float:
        """Predicted time to drain everything currently routed here.

        Accounts for the device's speed, so a fast replica with a deeper
        queue can legitimately beat a slow idle one under least-loaded
        dispatch.
        """
        backlog = max(self.device_free_at - now, 0.0) if self._busy else 0.0
        for _, times, tags in self._batch_queue:
            backlog += self._batch_cost_s(times, tags)
        if self._pending:
            backlog += self._batch_cost_s(self._pending, self._pending_tags)
        return backlog

    def _batch_cost_s(self, times: List[float], tags: Tags) -> float:
        """Predicted execution time of one batch, segment-accurate for mixes."""
        if tags is None:
            size = self.batching.execution_batch_size(len(times))
            return self.service.result(size).latency_seconds
        return sum(
            self.service.result(
                self.batching.execution_batch_size(len(group)), model_name
            ).latency_seconds
            for group, model_name in self._segment_batch(times, tags)
        )

    # -- event handlers ------------------------------------------------
    def submit(self, arrival_s: float, model_name: Optional[str] = None) -> None:
        """Accept an arrival at the current simulated time.

        ``arrival_s`` is its arrival time, which a chaos re-dispatch keeps
        from before the crash; ``model_name`` tags it for a multi-model
        service and is ignored by a single-model one.
        """
        now = self.sim.now
        self.arrival_count += 1
        self._pending.append(arrival_s)
        if self._pending_tags is not None:
            self._pending_tags.append(model_name)
        self._outstanding += 1
        signal = self.batching.on_enqueue(
            self._pending, now, not self._busy and not self._batch_queue
        )
        # _apply() inlined: submit runs once per request, the two attribute
        # checks are not worth a call there.
        if signal.timer_at is not None:
            self._arm_timer(signal.timer_at)
        if signal.close and self._pending:
            self._close_batch(now)

    def flush(self) -> None:
        """Close any pending batch immediately (end-of-stream drain)."""
        if self._pending:
            self._close_batch(self.sim.now)

    def _apply(self, signal: BatchSignal, now: float) -> None:
        if signal.timer_at is not None:
            self._arm_timer(signal.timer_at)
        if signal.close and self._pending:
            self._close_batch(now)

    def _arm_timer(self, time: float) -> None:
        if self._close_timer is not None:
            self._close_timer.cancel()
        self._close_timer = self.sim.schedule_at(
            max(time, self.sim.now), self._on_timer, label=self._close_label
        )

    def _on_timer(self) -> None:
        self._close_timer = None
        if not self._pending:
            return
        now = self.sim.now
        signal = self.batching.on_timer(self._pending, now, self.device_idle)
        self._apply(signal, now)

    def _close_batch(self, now: float) -> None:
        if self._close_timer is not None:
            self._close_timer.cancel()
            self._close_timer = None
        times = self._pending
        tags = self._pending_tags
        self._pending = []
        if tags is not None:
            self._pending_tags = []
        self._batch_queue.append((now, times, tags))
        self._maybe_start()

    def _segment_batch(
        self, times: List[float], tags: Tags
    ) -> List[Tuple[List[float], Optional[str]]]:
        """Split a closed batch's arrival times into per-model segments.

        Single-model services (the common case, ``tags is None``) execute
        the batch as one segment; mixed-traffic batches execute one segment
        per target model, back to back, in first-appearance order.
        """
        if tags is None:
            return [(times, None)]
        groups: Dict[Optional[str], List[float]] = {}
        for time, key in zip(times, tags):
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
            bucket.append(time)
        return [(group, key) for key, group in groups.items()]

    def _execute_result(
        self, batch_size: int, model_name: Optional[str]
    ) -> InferenceResult:
        """Price one executed segment (hook: sharded replicas price per batch)."""
        return self.service.result(batch_size, model_name)

    def _maybe_start(self) -> None:
        if self._busy or not self._batch_queue:
            return
        ready, batch, tags = self._batch_queue.popleft()
        start = self.sim.now
        clock = start
        previous_finish = self.last_finish_s
        busy_delta = 0.0
        energy_delta = 0.0
        segmented = self._segment_batch(batch, tags)
        times = batch
        if len(segmented) > 1:
            # Segments complete back to back, so completion order is
            # segment order.
            times = [time for group, _ in segmented for time in group]
        for group, model_name in segmented:
            result = self._execute_result(
                self.batching.execution_batch_size(len(group)), model_name
            )
            # Sum the stage breakdown once; the result's energy is the same
            # power x latency product.
            duration = result.latency_seconds
            energy = result.power_watts * duration
            if self.latency_multiplier != 1.0:
                duration *= self.latency_multiplier
            seg_start = clock
            clock = seg_start + duration
            busy_delta += duration
            energy_delta += energy
            self.busy_time_s += duration
            self.energy_joules += energy
            if clock > self.last_finish_s:
                self.last_finish_s = clock
            self.executed.append(
                ExecutedBatch(
                    ready_time_s=ready,
                    start_time_s=seg_start,
                    finish_time_s=clock,
                    batch_size=len(group),
                )
            )
        finish = clock
        self._busy = True
        self.device_free_at = finish
        self._executing = (
            start,
            finish,
            previous_finish,
            busy_delta,
            energy_delta,
            len(segmented),
            batch,
            tags,
        )
        self._completion_event = self.sim.schedule_at(
            finish,
            lambda times=times: self._on_complete(times),
            label=self._complete_label,
        )

    def crash(self) -> List[Tuple[float, Optional[str]]]:
        """Chaos hook: kill the device mid-flight at the current sim time.

        Cancels any batch-close timer and the in-flight completion event,
        rolls the executing batch's accounting back to the crash instant
        (the device is charged the busy time and energy it actually burned
        before dying, but completes nothing), removes every in-flight
        request from this replica's counters, and returns them for the
        caller to re-dispatch or shed: ``(arrival time, model tag)`` pairs,
        the executing batch first, then the pending batch, then the closed
        batches in queue order (the tag is ``None`` for a single-model
        service).  Afterwards the replica is clean: idle, empty queues, and
        per-replica conservation (``completed == arrivals``) still holds.
        """
        now = self.sim.now
        if self._close_timer is not None:
            self._close_timer.cancel()
            self._close_timer = None
        queued = [(self._pending, self._pending_tags)]
        queued.extend((times, tags) for _, times, tags in self._batch_queue)
        self._pending = []
        if self._pending_tags is not None:
            self._pending_tags = []
        self._batch_queue.clear()
        if self._busy:
            (
                start, finish, previous_finish, busy_delta, energy_delta, seg_count,
                times, tags,
            ) = self._executing
            queued.insert(0, (times, tags))
            self._completion_event.cancel()
            span = finish - start
            burned = min(max(now - start, 0.0), span) / span if span > 0.0 else 1.0
            self.busy_time_s -= busy_delta * (1.0 - burned)
            self.energy_joules -= energy_delta * (1.0 - burned)
            del self.executed[len(self.executed) - seg_count :]
            self.last_finish_s = previous_finish
            self._busy = False
            self.device_free_at = now
        self._completion_event = None
        self._executing = None
        salvaged = [
            arrival
            for times, tags in queued
            for arrival in zip(times, tags if tags is not None else repeat(None))
        ]
        self.arrival_count -= len(salvaged)
        self._outstanding -= len(salvaged)
        return salvaged

    def _on_complete(self, times: List[float]) -> None:
        self._completion_event = None
        self._executing = None
        self.completed_arrival_s.extend(times)
        completed = len(times)
        self._outstanding -= completed
        self._busy = False
        if self.completion_listener is not None:
            self.completion_listener(completed)
        # Only a truly idle device (no closed batches waiting) triggers the
        # policy hook; with work still queued, greedy policies should keep
        # accumulating the pending batch.
        if self._pending and not self._batch_queue:
            signal = self.batching.on_device_idle(self._pending, self.sim.now)
            self._apply(signal, self.sim.now)
        self._maybe_start()

    # -- reporting -----------------------------------------------------
    def build_report(self, model_name: str) -> ServingReport:
        """Summarize everything this replica served into a ServingReport."""
        executed = self.executed
        if not executed:
            raise SimulationError(f"{self.name} executed no batches")
        completed = self.completed_count
        if completed != self.arrival_count:
            raise SimulationError(
                f"{self.name} lost requests: {self.arrival_count} arrived, "
                f"{completed} completed"
            )
        # Each request finishes with its segment: the segment's finish time,
        # repeated by its size, minus the arrival times in completion order.
        finishes = np.repeat(
            [batch.finish_time_s for batch in executed],
            [batch.batch_size for batch in executed],
        )
        latencies = finishes - np.frombuffer(self.completed_arrival_s, dtype=np.float64)
        return ServingReport(
            design_point=self.service.design_point,
            model_name=model_name,
            completed_requests=completed,
            makespan_s=max(batch.finish_time_s for batch in executed),
            average_batch_size=completed / len(executed),
            device_busy_s=self.busy_time_s,
            energy_joules=self.energy_joules,
            executed_batches=tuple(executed),
            ordered_latency_s=latencies,
        )


@dataclass(frozen=True)
class StreamOutcome:
    """What a :func:`drive_stream` run did, in counters.

    Attributes:
        scheduled: Requests pulled from the stream and scheduled.
        completed: Requests that finished execution.
        peak_resident: Largest number of requests materialized (pulled but
            not yet completed) at any instant — the memory high-water mark
            of the streaming run, bounded by the in-flight work plus the
            single look-ahead arrival the driver keeps scheduled.
        shed: Requests dropped by chaos fault injection (crashed replicas
            whose in-flight work was not re-dispatched, or arrivals during
            a total outage).  Zero on every fault-free run; conservation
            holds as ``scheduled == completed + shed``.
    """

    scheduled: int
    completed: int
    peak_resident: int
    shed: int = 0


#: One arrival as the stream driver carries it: its time, or a
#: ``(time, model name)`` pair on a tagged (multi-model) stream.
Arrival = Union[float, Tuple[float, Optional[str]]]


class _StreamDriver:
    """The arrival stream as the simulator's merged ordered source.

    Exactly one arrival is ranked ahead of the clock: its ``(time,
    sequence)`` :attr:`key` sits beside the event heap.  When the key
    precedes the heap top, :meth:`Simulator.run` calls :meth:`admit` once,
    and it delivers that arrival and every successor whose key still
    precedes the heap top — an *arrival run*.  Nothing on the heap can fire
    before such an arrival, so no heap pass is needed between them (the
    "safe time" of conservative simulation).  Each delivery first ranks the
    successor, drawing its sequence number before the arrival is routed, as
    if it were pushed as an event then — so simultaneous arrivals keep their
    stream order ahead of any timers the submission arms.

    The stream is pulled lazily, so memory is constant in stream length.
    Its items are arrival times, or ``(time, model name)`` pairs when
    ``tagged`` (a multi-model service); a delivery is
    ``route(time).submit(time[, model name])``.  Controllers read
    :attr:`count` and :attr:`exhausted`, which follow the simulated clock,
    and the fault injector credits :attr:`shed`.
    """

    def __init__(
        self,
        sim: Simulator,
        arrivals: Iterable[Arrival],
        route: Callable[[float], "ReplicaServer"],
        tagged: bool = False,
    ):
        self.sim = sim
        self.route = route
        self.tagged = tagged
        #: Arrivals ranked so far (the one ahead of the clock included).
        self.count = 0
        self.completed = 0
        #: Arrivals dropped by chaos fault injection so far: the injector
        #: adds each shed it counts, so conservation reads
        #: ``count == completed + shed``.
        self.shed = 0
        self.peak_resident = 0
        #: True once a delivered arrival finds no successor.
        self.exhausted = False
        #: ``(time, sequence)`` of the arrival ranked ahead of the clock.
        self.key: Optional[Tuple[float, int]] = None
        self._current: Optional[Arrival] = None
        self._arrivals: Iterator[Arrival] = iter(arrivals)
        self._reserve = sim.queue.reserve

    def note_completion(self, count: int) -> None:
        self.completed += count

    def attach(self) -> None:
        """Become the simulator's source and rank the first arrival,
        drawing its sequence number now."""
        self.sim.source = self
        first = next(self._arrivals, None)
        if first is None:
            self.exhausted = True
            return
        self.count = 1
        self._current = first
        self.key = (first[0] if self.tagged else first, self._reserve())

    def admit(self, budget: int) -> int:
        """Deliver the ranked arrival and the rest of its run; return how
        many arrivals were delivered.

        The engine calls this once the key precedes the heap top.  Each
        arrival sets the clock and the causality floor, ranks its successor
        before its own submit, counts in ``events_fired`` and profiles as
        ``"arrival"``.  The heap top is read again after every submit,
        which may push an earlier timer.  The run ends there, after
        ``budget`` arrivals or at the stream's end.
        """
        sim = self.sim
        queue = sim.queue
        top = queue.top
        profile = sim.profile
        arrivals = self._arrivals
        reserve = self._reserve
        route = self.route
        tagged = self.tagged
        peak = self.peak_resident
        successor = arrival = self._current
        key = self.key
        delivered = 0
        try:
            while True:
                time = key[0]
                # The causality floor advances as if the arrival were popped.
                queue._floor = time
                sim.now = time
                if profile is not None:
                    started = perf_counter()
                successor = next(arrivals, None)
                if successor is not None:
                    successor_time = successor[0] if tagged else successor
                    if successor_time < time:
                        raise SimulationError(
                            "streaming arrivals must be time-ordered: got "
                            f"{successor_time} after {time}"
                        )
                    count = self.count = self.count + 1
                    key = (successor_time, reserve())
                else:
                    count = self.count
                    key = None
                    self.exhausted = True
                if tagged:
                    route(time).submit(time, arrival[1])
                else:
                    route(time).submit(time)
                resident = count - self.completed - self.shed
                if resident > peak:
                    peak = resident
                if profile is not None:
                    profile.record("arrival", perf_counter() - started)
                delivered += 1
                if key is None or delivered == budget:
                    break
                entry = top()
                if entry is not None and entry < key:
                    break
                arrival = successor
        finally:
            self.key = key
            self._current = successor
            self.peak_resident = peak
            sim.events_fired += delivered
        return delivered

    def drive(self, replicas: Sequence["ReplicaServer"]) -> "StreamOutcome":
        """Run the stream through ``replicas`` to completion."""
        sim = self.sim
        previous_listeners = [replica.completion_listener for replica in replicas]
        for replica in replicas:
            replica.completion_listener = self.note_completion
        try:
            self.attach()
            sim.run()
            # Policies without a close timer (e.g. FixedSizeBatching with no
            # wait cap) can strand a trailing partial batch once the stream
            # ends; flush and keep running until every replica drains.
            guard = 0
            while any(replica.has_pending for replica in replicas):
                guard += 1
                if guard > self.count + 1:
                    raise SimulationError(
                        "serving simulation failed to drain pending requests"
                    )
                for replica in replicas:
                    replica.flush()
                sim.run()
        finally:
            sim.source = None
            for replica, listener in zip(replicas, previous_listeners):
                replica.completion_listener = listener
        if self.completed + self.shed != self.count:
            raise SimulationError(
                f"request conservation violated: {self.count} arrived, "
                f"{self.completed} served, {self.shed} shed"
            )
        return StreamOutcome(
            scheduled=self.count,
            completed=self.completed,
            peak_resident=self.peak_resident,
            shed=self.shed,
        )


def tags_needed(replicas: Sequence[ReplicaServer]) -> bool:
    """True when a replica prices a traffic mix, so arrivals carry tags."""
    return any(replica.service.multi_model for replica in replicas)


def arrivals_of(
    requests: Union[Sequence["InferenceRequest"], Iterable["InferenceRequest"]],
    tagged: bool,
) -> Iterator[Arrival]:
    """Request objects as the stream driver's arrivals, converted once at
    the edge: their times, or ``(time, model name)`` pairs when ``tagged``.
    A sequence is sorted by arrival time first (the legacy contract)."""
    if isinstance(requests, Sequence):
        requests = sorted(requests, key=attrgetter("arrival_time_s"))
    if tagged:
        return map(attrgetter("arrival_time_s", "model_name"), requests)
    return map(attrgetter("arrival_time_s"), requests)


class Controller:
    """Something a :class:`~repro.serving.fleet.Fleet` arms on the engine
    for one stream: the autoscaler's lifecycle controller, the sharded
    update driver or the chaos fault injector.

    Every hook is optional; the defaults leave the run untouched.
    """

    #: The stream's driver, set before :meth:`arm`: its live ``count`` and
    #: ``exhausted`` follow the simulated clock, and a fault injector
    #: credits its ``shed``.
    stream: Optional[_StreamDriver] = None
    #: Takes over routing from the fleet's dispatcher when set; it is
    #: called with each arrival's time.
    route: Optional[Callable[[float], ReplicaServer]] = None

    def arm(self) -> None:
        """Schedule the first events (controllers arm in list order)."""

    def finish(self, report, horizon_s: float):
        """Return ``report`` with this controller's accounting attached."""
        return report


def drive_stream(
    sim: Simulator,
    replicas: Sequence[ReplicaServer],
    requests: Union[Sequence["InferenceRequest"], Iterable["InferenceRequest"]],
    route: Callable[[float], ReplicaServer],
) -> StreamOutcome:
    """Drive a request stream through the fleet and run to completion.

    The request objects are converted to arrival times once, here (tagged
    with their model names when a replica prices a traffic mix); the
    times are pulled lazily and merged into the simulator beside its event
    heap (see :class:`_StreamDriver`), so an arbitrarily long stream holds
    just the in-flight arrival times in memory.  Sequences are sorted
    first (the legacy contract); bare iterators must already be
    time-ordered.  The strict conservation identity
    ``scheduled == completed`` holds: nothing here sheds.

    Args:
        sim: The shared simulator all replicas live on.
        replicas: The replica fleet.
        requests: The request stream — a sequence (any order) or a lazy,
            time-ordered iterator (e.g. ``Workload.requests(...)``).
        route: Callable ``(arrival time) -> ReplicaServer`` evaluated *at
            arrival time*, so routing sees live queue state.
    """
    tagged = tags_needed(replicas)
    return _StreamDriver(sim, arrivals_of(requests, tagged), route, tagged).drive(replicas)
