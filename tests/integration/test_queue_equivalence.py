"""The engine against an all-on-heap reference: identical serving outcomes.

:class:`~repro.sim.engine.EventQueue` recycles fired and compacted events
and drops cancelled entries from storage in bulk, and
:meth:`~repro.sim.engine.Simulator.run` merges the arrival stream beside
the heap instead of queueing it.  None of that may be visible to the
serving layer: a holder that kept a reference to a recycled event, a
compaction that lost a live one, or an arrival ranked against the heap
top with the wrong sequence number would change what fires when.  Each
cell here runs one serving configuration twice — once on the engine as
shipped and once on the reference: :class:`_ReferenceQueue` (a sorted list
that allocates a fresh event per push, never reuses one and never
compacts) with :class:`_ReferenceDriver`, which pushes one heap event per
arrival as the engine did before arrivals left the heap — and compares the
full outcome fingerprint of the determinism matrix plus every simulator's
per-label event counts, final clock and ``events_fired``.
"""

import bisect
import hashlib
import pickle
from itertools import islice
from typing import Sequence

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.errors import SimulationError
from repro.serving import Fleet, FleetSpec, TargetUtilizationPolicy, TimeoutBatching
from repro.serving import fleet
from repro.serving.replica import StreamOutcome
from repro.sim import engine
from repro.sim.engine import Event
from repro.workloads import ConstantRateArrivals, ReplayArrivals, Workload

from tests.integration.test_determinism_matrix import (
    AUTOSCALERS,
    BATCHINGS,
    DISPATCHERS,
    FAULTS,
    NUM_REQUESTS,
    UPDATE_STREAMS,
    _fingerprint,
    _run,
    _run_sharded_updates,
)


class _ReferenceQueue:
    """The queue interface the engine uses, with no pooling or compaction.

    Entries are ``(time, sequence, event)`` tuples kept sorted in a list;
    cancelled entries stay queued until popped, and released events are
    parked in ``_free`` but never handed out again.
    """

    instances = []

    def __init__(self):
        self._entries = []
        self._next_sequence = 0
        self._free = []
        self._floor = 0.0
        self.pushes = 0
        _ReferenceQueue.instances.append(self)

    def __len__(self):
        return len(self._entries)

    def reserve(self):
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    def push(self, time, callback, label=""):
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        if time < self._floor:
            raise SimulationError(f"event {label!r} at {time} violates causality")
        event = Event(time, self.reserve(), callback, label, self)
        self.pushes += 1
        bisect.insort(self._entries, (time, event.sequence, event))
        return event

    def take(self):
        if not self._entries:
            return None
        time, _, event = self._entries.pop(0)
        self._floor = time
        return event

    def pop(self):
        event = self.take()
        if event is None:
            raise SimulationError("cannot pop from an empty event queue")
        return event

    def top(self):
        return self._entries[0] if self._entries else None

    def release(self, event):
        event.callback = None
        self._free.append(event)

    def _note_cancel(self):
        pass


# ---------------------------------------------------------------------------
# The arrival driver as it was before arrivals left the heap: the driver
# class and the fleet's counting wrapper are kept verbatim, and
# _ReferenceDriver.drive is the old drive_stream body.
# ---------------------------------------------------------------------------
_STREAM_CHUNK = 1024


class _HeapStreamDriver:
    """Pulls arrivals from an iterator one event at a time.

    Exactly one arrival *event* is outstanding at any moment: when it
    fires, the driver first schedules its successor (so simultaneous
    arrivals keep their stream order ahead of any timers the submission
    arms) and then routes the request.  The iterator itself is drained in
    :data:`_STREAM_CHUNK` blocks, so memory is O(chunk) — constant in
    stream length.

    Streams that expose live arrival accounting (an ``exhausted``
    attribute, e.g. the fleet's counting wrapper) are pulled one
    request per event instead: controllers observe their counters between
    events, so draining them a chunk ahead of simulated time would make
    exhaustion and arrival-rate observations run ahead of the clock.
    """

    def __init__(self, sim, iterator, route, lost=None):
        self.sim = sim
        self.iterator = iterator
        self.route = route
        self.lost = lost
        self.scheduled = 0
        self.completed = 0
        self.peak_resident = 0
        self._current = None
        self._last_time = 0.0
        self._buffer = []
        self._next = 0
        self._buffered = not hasattr(iterator, "exhausted")
        # Arrivals are already validated monotone (the raise in pump), so
        # push straight onto the queue — it still enforces the causality
        # floor — instead of going through Simulator.schedule_at.
        self._push = sim.queue.push

    def note_completion(self, count: int) -> None:
        self.completed += count

    def pump(self) -> None:
        if self._buffered:
            index = self._next
            buffer = self._buffer
            if index >= len(buffer):
                buffer = list(islice(self.iterator, _STREAM_CHUNK))
                if not buffer:
                    return
                self._buffer = buffer
                index = 0
            request = buffer[index]
            self._next = index + 1
        else:
            request = next(self.iterator, None)
            if request is None:
                return
        arrival_time = request.arrival_time_s
        if arrival_time < self._last_time:
            raise SimulationError(
                "streaming arrivals must be time-ordered: got "
                f"{arrival_time} after {self._last_time}"
            )
        self._last_time = arrival_time
        self.scheduled += 1
        self._current = request
        self._push(arrival_time, self._fire, "arrival")

    def _fire(self) -> None:
        request = self._current
        self.pump()
        self.route(request).submit(request)
        resident = self.scheduled - self.completed
        if self.lost is not None:
            resident -= self.lost()
        if resident > self.peak_resident:
            self.peak_resident = resident


class _CountingStream:
    """A request iterator that counts its arrivals and notes its end.

    Exposing ``exhausted`` flips :func:`drive_stream` into its unbuffered
    one-pull-per-event mode, so ``count`` and ``exhausted`` follow the
    simulated clock: ``exhausted`` turns True when the last arrival fires,
    which is when controllers reading it between events expect it.
    """

    def __init__(self, iterator):
        self._iterator = iterator
        self.count = 0
        self.exhausted = False

    def __iter__(self) -> "_CountingStream":
        return self

    def __next__(self):
        try:
            request = next(self._iterator)
        except StopIteration:
            self.exhausted = True
            raise
        self.count += 1
        return request


class _ReferenceDriver:
    """The fleet's stream driver interface, one heap event per arrival."""

    def __init__(self, sim, requests, route, lost=None):
        if isinstance(requests, Sequence):
            requests = sorted(requests, key=lambda request: request.arrival_time_s)
        self.sim = sim
        self.stream = _CountingStream(iter(requests))
        self.driver = _HeapStreamDriver(sim, self.stream, route, lost=lost)
        self.lost = lost

    @property
    def count(self):
        return self.stream.count

    @property
    def exhausted(self):
        return self.stream.exhausted

    def drive(self, replicas):
        sim, driver, lost = self.sim, self.driver, self.lost
        assert sim.source is None
        previous_listeners = [replica.completion_listener for replica in replicas]
        for replica in replicas:
            replica.completion_listener = driver.note_completion
        try:
            driver.pump()
            sim.run()
            guard = 0
            while any(replica.has_pending for replica in replicas):
                guard += 1
                if guard > driver.scheduled + 1:
                    raise SimulationError(
                        "serving simulation failed to drain pending requests"
                    )
                for replica in replicas:
                    replica.flush()
                sim.run()
        finally:
            for replica, listener in zip(replicas, previous_listeners):
                replica.completion_listener = listener
        shed = lost() if lost is not None else 0
        if driver.completed + shed != driver.scheduled:
            raise SimulationError(
                f"request conservation violated: {driver.scheduled} arrived, "
                f"{driver.completed} served, {shed} shed"
            )
        return StreamOutcome(
            scheduled=driver.scheduled,
            completed=driver.completed,
            peak_resident=driver.peak_resident,
            shed=shed,
        )


class _RecordingSimulator(engine.Simulator):
    """A profiled simulator that notes itself, so a cell can compare every
    simulator's event counts and final clock (profiling only records)."""

    instances = []

    def __init__(self, profile=False):
        super().__init__(profile=True)
        _RecordingSimulator.instances.append(self)


def _engine_trace(run):
    """``run()``'s result plus each simulator's labels, clock and count."""
    _RecordingSimulator.instances = []
    result = run()
    trace = [
        (
            {stats.label: stats.count for stats in sim.profile},
            sim.now,
            sim.events_fired,
        )
        for sim in _RecordingSimulator.instances
    ]
    _RecordingSimulator.instances = []
    return result, trace


@pytest.fixture
def on_reference(monkeypatch):
    """Run a zero-argument thunk on the engine as shipped and on the
    reference; return both results with their engine traces, after
    checking the reference really queued its arrivals."""

    def run(thunk):
        with monkeypatch.context() as patch:
            patch.setattr(fleet, "Simulator", _RecordingSimulator)
            shipped = _engine_trace(thunk)
            _ReferenceQueue.instances = []
            patch.setattr(engine, "EventQueue", _ReferenceQueue)
            patch.setattr(fleet, "_StreamDriver", _ReferenceDriver)
            reference = _engine_trace(thunk)
        assert sum(queue.pushes for queue in _ReferenceQueue.instances) > 0
        _ReferenceQueue.instances = []
        assert shipped[1] == reference[1]
        assert all(labels.get("arrival", 0) > 0 for labels, _, _ in shipped[1])
        return shipped[0], reference[0]

    return run


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("batching_key", sorted(BATCHINGS))
@pytest.mark.parametrize("autoscaler_key", sorted(AUTOSCALERS))
def test_engine_matches_reference(
    on_reference, dispatcher_key, batching_key, autoscaler_key
):
    (heap_report, heap_outcome), (ref_report, ref_outcome) = on_reference(
        lambda: _run(dispatcher_key, batching_key, autoscaler_key)
    )

    assert heap_outcome == ref_outcome
    assert _fingerprint(heap_report, heap_outcome) == _fingerprint(
        ref_report, ref_outcome
    )
    np.testing.assert_array_equal(
        heap_report.latency.samples_s, ref_report.latency.samples_s
    )
    assert heap_outcome.scheduled == heap_outcome.completed == NUM_REQUESTS


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("fault_key", sorted(FAULTS))
def test_engine_matches_reference_under_faults(on_reference, dispatcher_key, fault_key):
    """Crashes cancel batch timers and in-flight work, so these cells are
    the ones that drive cancellation and compaction hardest."""
    (heap_report, heap_outcome), (ref_report, ref_outcome) = on_reference(
        lambda: _run(dispatcher_key, "timeout", "queue", fault_key)
    )

    assert heap_outcome == ref_outcome
    assert _fingerprint(heap_report, heap_outcome) == _fingerprint(
        ref_report, ref_outcome
    )
    assert pickle.dumps(heap_report.incidents, protocol=4) == pickle.dumps(
        ref_report.incidents, protocol=4
    )
    assert heap_outcome.completed + heap_outcome.shed == NUM_REQUESTS


@pytest.mark.parametrize("policy_key", ["lru", "lfu"])
@pytest.mark.parametrize("stream_key", sorted(UPDATE_STREAMS))
def test_engine_matches_reference_under_update_streams(
    on_reference, policy_key, stream_key
):
    heap, reference = on_reference(lambda: _run_sharded_updates(policy_key, stream_key))
    assert hashlib.sha256(pickle.dumps(heap, protocol=4)).hexdigest() == hashlib.sha256(
        pickle.dumps(reference, protocol=4)
    ).hexdigest()
    assert heap.sharding.update_events > 0


#: 2**-13 s between arrivals: every multiple of the gap is exact in binary
#: floating point, so a window of whole gaps closes a batch at the very
#: instant of a later arrival, and the tie is broken by sequence number.
TIE_RATE_QPS = 8192.0
TIE_GAPS = (1, 4)
SEED_TIES = 2


def _run_ties(window_gaps: int, dispatcher_key: str, autoscaled: bool, trailing_gap_s=0.0):
    """Constant-rate arrivals batched by a window of ``window_gaps`` gaps.

    A ``trailing_gap_s`` holds the last arrival back that long, so the
    controllers see the stream still open across an idle stretch.
    """
    count = 600
    arrivals = ConstantRateArrivals(rate_qps=TIE_RATE_QPS)
    if trailing_gap_s:
        times = [request.arrival_time_s for request in arrivals.generate(num_requests=count)]
        times[-1] = times[-2] + trailing_gap_s
        arrivals = ReplayArrivals(times)
    cluster = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM2,
        FleetSpec(
            policy=TargetUtilizationPolicy(target=0.6, deadband=0.1, cooldown_s=0.01)
            if autoscaled
            else None,
            min_replicas=1,
            max_replicas=3,
            replicas=2,
            control_interval_s=2**-9,
            warmup_s=2**-10,
            dispatcher=DISPATCHERS[dispatcher_key](),
            batching=TimeoutBatching(window_s=window_gaps / TIE_RATE_QPS, max_batch_size=16),
        ),
    )
    report = cluster.serve_workload(
        Workload(arrivals=arrivals, name="ties"), num_requests=count, seed=SEED_TIES
    )
    return report, cluster.last_outcome


@pytest.mark.parametrize("window_gaps", TIE_GAPS)
@pytest.mark.parametrize("dispatcher_key", ["round-robin", "jsq"])
@pytest.mark.parametrize("autoscaled", [False, True], ids=["static", "util"])
@pytest.mark.parametrize("trailing_gap_s", [0.0, 0.05], ids=["steady", "trailing-gap"])
def test_engine_matches_reference_on_exact_ties(
    on_reference, window_gaps, dispatcher_key, autoscaled, trailing_gap_s
):
    (heap_report, heap_outcome), (ref_report, ref_outcome) = on_reference(
        lambda: _run_ties(window_gaps, dispatcher_key, autoscaled, trailing_gap_s)
    )
    assert heap_outcome == ref_outcome
    assert _fingerprint(heap_report, heap_outcome) == _fingerprint(
        ref_report, ref_outcome
    )
