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

Memory discipline: replicas hold request objects only while they are in
flight (pending batch, closed-batch queue, executing batch).  Everything a
report needs about the past is kept as counters and running aggregates, so
a multi-million-request streaming run (see :func:`drive_stream`) stays
O(max in-flight) in resident requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
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
from repro.serving.metrics import ExecutedBatch, LatencyDistribution, ServingReport
from repro.sim.engine import Event, Simulator
from repro.workloads.arrivals import InferenceRequest


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


#: One device occupancy: when it starts, when it ends, and the arrival
#: times of the requests it serves.  Completion accounting only needs the
#: arrival times; the executing batch's request objects are kept on the
#: replica (``_executing``) so a chaos crash can salvage them, and are
#: released when the batch completes.
_Segment = Tuple[float, float, List[float]]

#: Below this segment size the scalar completion loop beats numpy's
#: fixed per-call overhead; above it the vectorized path wins.
_VECTORIZE_MIN = 16


class ReplicaServer:
    """One device behind a batching queue, driven by simulator events.

    Args:
        sim: The shared event simulator.
        service: Cached runner predictions for this replica's device.
        batching: Batching policy (immutable; may be shared across replicas).
        name: Label used on scheduled events (debugging/tracing).
        record_latency_samples: Keep every per-request latency/queueing
            sample for exact percentile reporting (the default).  Disable
            for huge streaming runs: counters and running aggregates are
            still maintained, but :meth:`build_report` (which needs the full
            distribution) becomes unavailable.
    """

    def __init__(
        self,
        sim: Simulator,
        service: ServiceModel,
        batching: BatchingPolicy,
        name: str = "replica",
        record_latency_samples: bool = True,
    ):
        self.sim = sim
        self.service = service
        self.batching = batching
        self.name = name
        self.record_latency_samples = record_latency_samples
        # Open batch accumulating arrivals (+ arrival times, kept in step so
        # batch completion can vectorize over them without re-touching the
        # request objects).
        self._pending: List[InferenceRequest] = []
        self._pending_times: List[float] = []
        self._close_timer: Optional[Event] = None
        # Closed batches waiting for the device, FIFO.
        self._batch_queue: Deque[
            Tuple[float, List[InferenceRequest], List[float]]
        ] = deque()
        self._busy = False
        self._in_flight = 0
        self._outstanding = 0
        self.device_free_at = 0.0
        # Accounting: counters + aggregates (O(1) memory), optional samples.
        self.arrival_count = 0
        self.last_arrival_s = 0.0
        self.completed_count = 0
        self.peak_outstanding = 0
        self.latency_sum_s = 0.0
        self.latency_max_s = 0.0
        self.queueing_sum_s = 0.0
        self.batch_count = 0
        self.batch_size_sum = 0
        self.last_finish_s = 0.0
        # Per-batch boundary records; like the latency samples, only kept
        # when sample recording is on — otherwise a long streaming run would
        # retain O(num batches) memory through these records.
        self.executed: List[ExecutedBatch] = []
        self.request_latency_s: List[float] = []
        self.request_queueing_s: List[float] = []
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
        # previous last_finish_s, busy/energy deltas, segment count, batch).
        self._completion_event: Optional[Event] = None
        self._executing: Optional[
            Tuple[float, float, float, float, float, int, List[InferenceRequest]]
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
    def mean_latency_s(self) -> float:
        """Running mean request latency (available even without samples)."""
        if self.completed_count == 0:
            return 0.0
        return self.latency_sum_s / self.completed_count

    def estimated_backlog_s(self, now: float) -> float:
        """Predicted time to drain everything currently routed here.

        Accounts for the device's speed, so a fast replica with a deeper
        queue can legitimately beat a slow idle one under least-loaded
        dispatch.
        """
        backlog = max(self.device_free_at - now, 0.0) if self._busy else 0.0
        for _, batch, _ in self._batch_queue:
            backlog += self._batch_cost_s(batch)
        if self._pending:
            backlog += self._batch_cost_s(self._pending)
        return backlog

    def _batch_cost_s(self, batch: Sequence[InferenceRequest]) -> float:
        """Predicted execution time of one batch, segment-accurate for mixes."""
        if not self.service.multi_model:
            size = self.batching.execution_batch_size(len(batch))
            return self.service.result(size).latency_seconds
        return sum(
            self.service.result(
                self.batching.execution_batch_size(len(group)), model_name
            ).latency_seconds
            for group, model_name in self._segment_batch(list(batch))
        )

    # -- event handlers ------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Accept a request at the current simulated time."""
        now = self.sim.now
        self.arrival_count += 1
        arrival_time = request.arrival_time_s
        if arrival_time > self.last_arrival_s:
            self.last_arrival_s = arrival_time
        self._pending.append(request)
        self._pending_times.append(arrival_time)
        outstanding = self._outstanding + 1
        self._outstanding = outstanding
        if outstanding > self.peak_outstanding:
            self.peak_outstanding = outstanding
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
            max(time, self.sim.now), self._on_timer, label=f"{self.name}:batch-close"
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
        batch = self._pending
        times = self._pending_times
        self._pending = []
        self._pending_times = []
        self._batch_queue.append((now, batch, times))
        self._maybe_start()

    def _segment_batch(
        self, batch: List[InferenceRequest]
    ) -> List[Tuple[List[InferenceRequest], Optional[str]]]:
        """Split a closed batch into per-model execution segments.

        Single-model services (the common case) execute the batch as one
        segment; mixed-traffic batches execute one segment per target model,
        back to back, in first-appearance order.
        """
        if not self.service.multi_model:
            return [(batch, None)]
        groups: Dict[Optional[str], List[InferenceRequest]] = {}
        order: List[Optional[str]] = []
        for request in batch:
            key = request.model_name
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(request)
        return [(groups[key], key) for key in order]

    def _execute_result(
        self, batch_size: int, model_name: Optional[str]
    ) -> InferenceResult:
        """Price one executed segment (hook: sharded replicas price per batch)."""
        return self.service.result(batch_size, model_name)

    def _maybe_start(self) -> None:
        if self._busy or not self._batch_queue:
            return
        ready, batch, times = self._batch_queue.popleft()
        start = self.sim.now
        segments: List[_Segment] = []
        clock = start
        previous_finish = self.last_finish_s
        busy_delta = 0.0
        energy_delta = 0.0
        if not self.service.multi_model:
            segmented = [(batch, None, times)]
        else:
            segmented = [
                (group, model_name, [request.arrival_time_s for request in group])
                for group, model_name in self._segment_batch(batch)
            ]
        for group, model_name, group_times in segmented:
            result = self._execute_result(
                self.batching.execution_batch_size(len(group)), model_name
            )
            duration = result.latency_seconds
            if self.latency_multiplier != 1.0:
                duration *= self.latency_multiplier
            seg_start = clock
            clock = seg_start + duration
            busy_delta += duration
            energy_delta += result.energy_joules
            self.busy_time_s += duration
            self.energy_joules += result.energy_joules
            self.batch_count += 1
            self.batch_size_sum += len(group)
            if clock > self.last_finish_s:
                self.last_finish_s = clock
            if self.record_latency_samples:
                self.executed.append(
                    ExecutedBatch(
                        ready_time_s=ready,
                        start_time_s=seg_start,
                        finish_time_s=clock,
                        batch_size=len(group),
                    )
                )
            segments.append((seg_start, clock, group_times))
        finish = clock
        self._busy = True
        self._in_flight = len(batch)
        self.device_free_at = finish
        self._executing = (
            start,
            finish,
            previous_finish,
            busy_delta,
            energy_delta,
            len(segmented),
            batch,
        )
        self._completion_event = self.sim.schedule_at(
            finish,
            lambda segs=segments: self._on_complete(segs),
            label=f"{self.name}:complete",
        )

    def crash(self) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
        """Chaos hook: kill the device mid-flight at the current sim time.

        Cancels any batch-close timer and the in-flight completion event,
        rolls the executing batch's accounting back to the crash instant
        (the device is charged the busy time and energy it actually burned
        before dying, but completes nothing), removes every in-flight
        request from this replica's counters, and returns them as
        ``(queued, executing)`` lists for the caller to re-dispatch or
        shed.  Afterwards the replica is clean: idle, empty queues, and
        per-replica conservation (``completed == arrivals``) still holds.
        """
        now = self.sim.now
        queued: List[InferenceRequest] = []
        if self._close_timer is not None:
            self._close_timer.cancel()
            self._close_timer = None
        if self._pending:
            queued.extend(self._pending)
            self._pending = []
            self._pending_times = []
        for _, batch, _ in self._batch_queue:
            queued.extend(batch)
        self._batch_queue.clear()
        executing: List[InferenceRequest] = []
        if self._busy:
            start, finish, previous_finish, busy_delta, energy_delta, seg_count, batch = (
                self._executing
            )
            executing.extend(batch)
            self._completion_event.cancel()
            span = finish - start
            burned = min(max(now - start, 0.0), span) / span if span > 0.0 else 1.0
            self.busy_time_s -= busy_delta * (1.0 - burned)
            self.energy_joules -= energy_delta * (1.0 - burned)
            self.batch_count -= seg_count
            self.batch_size_sum -= len(batch)
            if self.record_latency_samples:
                del self.executed[len(self.executed) - seg_count :]
            self.last_finish_s = previous_finish
            self._busy = False
            self._in_flight = 0
            self.device_free_at = now
        self._completion_event = None
        self._executing = None
        removed = len(queued) + len(executing)
        self.arrival_count -= removed
        self._outstanding -= removed
        return queued, executing

    def _on_complete(self, segments: List[_Segment]) -> None:
        self._completion_event = None
        self._executing = None
        completed = 0
        record = self.record_latency_samples
        for seg_start, seg_finish, times in segments:
            count = len(times)
            if count >= _VECTORIZE_MIN:
                # Chunk-vectorized accounting: one numpy pass per segment
                # instead of one Python iteration per request.  Latency and
                # queueing values are elementwise identical to the scalar
                # path; only the *order of additions* into the running sums
                # differs (per-segment subtotal vs per-request), which no
                # report or artifact depends on.
                arrivals = np.asarray(times)
                latencies = seg_finish - arrivals
                queueings = seg_start - arrivals
                self.latency_sum_s += float(latencies.sum())
                self.queueing_sum_s += float(queueings.sum())
                peak = float(latencies.max())
                if peak > self.latency_max_s:
                    self.latency_max_s = peak
                if record:
                    self.request_latency_s.extend(latencies.tolist())
                    self.request_queueing_s.extend(queueings.tolist())
            else:
                for arrival_time in times:
                    latency = seg_finish - arrival_time
                    queueing = seg_start - arrival_time
                    self.latency_sum_s += latency
                    self.queueing_sum_s += queueing
                    if latency > self.latency_max_s:
                        self.latency_max_s = latency
                    if record:
                        self.request_latency_s.append(latency)
                        self.request_queueing_s.append(queueing)
            completed += count
        self.completed_count += completed
        self._outstanding -= completed
        self._busy = False
        self._in_flight = 0
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
        if self.batch_count == 0:
            raise SimulationError(f"{self.name} executed no batches")
        completed = self.completed_count
        if completed != self.arrival_count:
            raise SimulationError(
                f"{self.name} lost requests: {self.arrival_count} arrived, "
                f"{completed} completed"
            )
        if not self.record_latency_samples:
            raise SimulationError(
                f"{self.name} ran with latency samples disabled; percentile "
                "reports are unavailable (read the counters/aggregates instead)"
            )
        makespan = max(batch.finish_time_s for batch in self.executed)
        return ServingReport(
            design_point=self.service.design_point,
            model_name=model_name,
            offered_load_qps=completed / max(self.last_arrival_s, 1e-12),
            completed_requests=completed,
            makespan_s=makespan,
            latency=LatencyDistribution(self.request_latency_s),
            queueing=LatencyDistribution(self.request_queueing_s),
            average_batch_size=sum(b.batch_size for b in self.executed)
            / len(self.executed),
            device_busy_s=self.busy_time_s,
            energy_joules=self.energy_joules,
            extra={"num_batches": float(len(self.executed))},
            executed_batches=tuple(self.executed),
            ordered_latency_s=tuple(self.request_latency_s),
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


#: Arrivals pulled from the stream per refill: amortizes the generator
#: round-trip over a constant-size block without changing event order.
_STREAM_CHUNK = 1024


class _StreamDriver:
    """The arrival stream as the simulator's merged ordered source.

    Exactly one arrival is ranked ahead of the clock: its ``(time,
    sequence)`` :attr:`key` sits beside the event heap, and
    :meth:`Simulator.run` fires it when the key precedes the heap top.
    Firing first ranks the successor, drawing its sequence number before
    the request is routed, as if it were pushed as an event then — so
    simultaneous arrivals keep their stream order ahead of any timers the
    submission arms.  The iterator is drained in :data:`_STREAM_CHUNK`
    blocks, so memory is constant in stream length; controllers read
    :attr:`count` and :attr:`exhausted`, which follow the simulated clock.
    """

    def __init__(
        self,
        sim: Simulator,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        route: Callable[[InferenceRequest], "ReplicaServer"],
        lost: Optional[Callable[[], int]] = None,
    ):
        if isinstance(requests, Sequence):
            requests = sorted(requests, key=lambda request: request.arrival_time_s)
        iterator = iter(requests)
        self.sim = sim
        self.route = route
        self.lost = lost
        #: Arrivals ranked so far (the one ahead of the clock included).
        self.count = 0
        self.completed = 0
        self.peak_resident = 0
        #: True once a fired arrival finds no successor.
        self.exhausted = False
        #: ``(time, sequence)`` of the arrival ranked ahead of the clock.
        self.key: Optional[Tuple[float, int]] = None
        self._current: Optional[InferenceRequest] = None
        self._last_time = 0.0
        self._requests = chain.from_iterable(
            iter(lambda: list(islice(iterator, _STREAM_CHUNK)), [])
        )
        self._reserve = sim.queue.reserve

    def note_completion(self, count: int) -> None:
        self.completed += count

    def fire(self) -> Optional[Tuple[float, int]]:
        """Rank the successor, then deliver the ranked arrival (the first
        call only ranks); returns the new :attr:`key`."""
        request = self._current
        successor = next(self._requests, None)
        if successor is not None:
            arrival_time = successor.arrival_time_s
            if arrival_time < self._last_time:
                raise SimulationError(
                    "streaming arrivals must be time-ordered: got "
                    f"{arrival_time} after {self._last_time}"
                )
            self._last_time = arrival_time
            self.count += 1
            self._current = successor
            key = self.key = (arrival_time, self._reserve())
        else:
            key = self.key = self._current = None
            self.exhausted = True
        if request is not None:
            self.route(request).submit(request)
            resident = self.count - self.completed
            if self.lost is not None:
                resident -= self.lost()
            if resident > self.peak_resident:
                self.peak_resident = resident
        return key

    def drive(self, replicas: Sequence["ReplicaServer"]) -> "StreamOutcome":
        """Run the stream through ``replicas`` to completion."""
        sim = self.sim
        previous_listeners = [replica.completion_listener for replica in replicas]
        for replica in replicas:
            replica.completion_listener = self.note_completion
        sim.source = self
        try:
            self.fire()
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
        shed = self.lost() if self.lost is not None else 0
        if self.completed + shed != self.count:
            raise SimulationError(
                f"request conservation violated: {self.count} arrived, "
                f"{self.completed} served, {shed} shed"
            )
        return StreamOutcome(
            scheduled=self.count,
            completed=self.completed,
            peak_resident=self.peak_resident,
            shed=shed,
        )


class Controller:
    """Something a :class:`~repro.serving.fleet.Fleet` arms on the engine
    for one stream: the autoscaler's lifecycle controller, the sharded
    update driver or the chaos fault injector.

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


def drive_stream(
    sim: Simulator,
    replicas: Sequence[ReplicaServer],
    requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
    route: Callable[[InferenceRequest], ReplicaServer],
    lost: Optional[Callable[[], int]] = None,
) -> StreamOutcome:
    """Drive a request stream through the fleet and run to completion.

    Arrivals are pulled lazily and merged into the simulator beside its
    event heap (see :class:`_StreamDriver`), so an arbitrarily long stream
    holds just the in-flight requests in memory.  Sequences are sorted
    first (the legacy contract); bare iterators must already be
    time-ordered.

    Args:
        sim: The shared simulator all replicas live on.
        replicas: The replica fleet.
        requests: The arrival stream — a sequence (any order) or a lazy,
            time-ordered iterator (e.g. ``Workload.requests(...)``).
        route: Callable ``(request) -> ReplicaServer`` evaluated *at arrival
            time*, so routing sees live queue state.
        lost: Optional zero-argument callable returning the number of
            requests chaos fault injection has shed so far.  When given,
            conservation relaxes to ``scheduled == completed + lost()``;
            without it (every fault-free run) the strict identity holds.
    """
    return _StreamDriver(sim, requests, route, lost=lost).drive(replicas)
