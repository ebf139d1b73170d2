"""Pooled heap vs a plain reference queue: identical serving outcomes.

:class:`~repro.sim.engine.EventQueue` recycles fired and compacted events
and drops cancelled entries from storage in bulk.  Neither may be visible
to the serving layer: a holder that kept a reference to a recycled event,
or a compaction that lost a live one, would change what fires when.  Each
cell here runs one serving configuration twice — once on the engine's
queue and once with ``Simulator`` building :class:`_ReferenceQueue` (a
sorted list that allocates a fresh event per push, never reuses one and
never compacts) — and compares the full outcome fingerprint of the
determinism matrix.
"""

import bisect
import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.engine import Event

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

    def push(self, time, callback, label=""):
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        if time < self._floor:
            raise SimulationError(f"event {label!r} at {time} violates causality")
        event = Event(time, self._next_sequence, callback, label, self)
        self._next_sequence += 1
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

    def peek_time(self):
        return self._entries[0][0] if self._entries else None

    def release(self, event):
        event.callback = None
        self._free.append(event)

    def _note_cancel(self):
        pass


@pytest.fixture
def on_reference_queue(monkeypatch):
    """Call a zero-argument run with every new ``Simulator`` on the
    reference queue; check that the run really used it."""

    def run(thunk):
        _ReferenceQueue.instances = []
        with monkeypatch.context() as patch:
            patch.setattr(engine, "EventQueue", _ReferenceQueue)
            result = thunk()
        assert sum(queue.pushes for queue in _ReferenceQueue.instances) > 0
        _ReferenceQueue.instances = []
        return result

    return run


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("batching_key", sorted(BATCHINGS))
@pytest.mark.parametrize("autoscaler_key", sorted(AUTOSCALERS))
def test_pooled_heap_matches_reference_queue(
    on_reference_queue, dispatcher_key, batching_key, autoscaler_key
):
    heap_report, heap_outcome = _run(dispatcher_key, batching_key, autoscaler_key)
    ref_report, ref_outcome = on_reference_queue(
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
def test_pooled_heap_matches_reference_queue_under_faults(
    on_reference_queue, dispatcher_key, fault_key
):
    """Crashes cancel batch timers and in-flight work, so these cells are
    the ones that drive cancellation and compaction hardest."""
    heap_report, heap_outcome = _run(dispatcher_key, "timeout", "queue", fault_key)
    ref_report, ref_outcome = on_reference_queue(
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
def test_pooled_heap_matches_reference_queue_under_update_streams(
    on_reference_queue, policy_key, stream_key
):
    heap = _run_sharded_updates(policy_key, stream_key)
    reference = on_reference_queue(lambda: _run_sharded_updates(policy_key, stream_key))
    assert hashlib.sha256(pickle.dumps(heap, protocol=4)).hexdigest() == hashlib.sha256(
        pickle.dumps(reference, protocol=4)
    ).hexdigest()
    assert heap.sharding.update_events > 0
