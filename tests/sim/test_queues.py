"""The event queue: interface, pooling, cancellation, compaction.

The contract under test: :class:`EventQueue` pops in strict ``(time,
sequence)`` order (ties in push order), refuses pushes that would break
causality, recycles released events, and drops cancelled entries from
storage once they make up more than half of it.  The property tests pin
all of that against a plain sorted-list reference model.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import EventQueue


@pytest.fixture
def queue():
    return EventQueue()


# ---------------------------------------------------------------------------
# Interface contract.
# ---------------------------------------------------------------------------
class TestQueueContract:
    def test_orders_by_time(self, queue):
        queue.push(3e-3, lambda: None, label="late")
        queue.push(1e-3, lambda: None, label="early")
        queue.push(2e-3, lambda: None, label="middle")
        assert queue.top()[0] == 1e-3
        assert [queue.pop().label for _ in range(3)] == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self, queue):
        labels = [f"tie{i}" for i in range(8)]
        for label in labels:
            queue.push(5e-4, lambda: None, label=label)
        assert [queue.pop().label for _ in range(len(labels))] == labels

    def test_push_before_current_time_raises_with_label(self, queue):
        queue.push(1e-3, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError, match=r"autoscale:control.*causality"):
            queue.push(5e-4, lambda: None, label="autoscale:control")

    def test_negative_time_rejected(self, queue):
        with pytest.raises(SimulationError, match="non-negative"):
            queue.push(-1e-6, lambda: None)

    def test_pop_empty_raises_and_take_returns_none(self, queue):
        assert queue.take() is None
        with pytest.raises(SimulationError, match="empty"):
            queue.pop()

    def test_push_at_exactly_the_floor_is_allowed(self, queue):
        queue.push(1e-3, lambda: None)
        queue.pop()
        event = queue.push(1e-3, lambda: None, label="same-time")
        assert queue.pop() is event


class TestEventPooling:
    def test_fired_events_are_recycled(self, queue):
        first = queue.push(1e-3, lambda: None)
        queue.pop()
        queue.release(first)
        second = queue.push(2e-3, lambda: None)
        assert second is first  # same object, re-initialized
        assert second.time == 2e-3
        assert not second.cancelled

    def test_release_drops_the_callback_reference(self, queue):
        event = queue.push(1e-3, lambda: None)
        queue.pop()
        queue.release(event)
        assert event.callback is None


class TestCancellation:
    def test_cancel_drops_callback_immediately(self, queue):
        closure = []
        event = queue.push(1e-3, lambda: closure.append(1))
        event.cancel()
        assert event.callback is None
        assert event.cancelled

    def test_cancel_is_idempotent(self, queue):
        event = queue.push(1e-3, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.pop() is event

    def test_mass_cancellation_compacts_storage(self, queue):
        events = [queue.push(i * 1e-4, lambda: None, label=f"e{i}") for i in range(20)]
        for event in events[:16]:
            event.cancel()
        # Once the dead fraction passed one half, compaction dropped the
        # cancelled entries from storage instead of waiting for their times.
        assert len(queue) < 20
        live = []
        while len(queue):
            popped = queue.pop()
            if not popped.cancelled:
                live.append(popped.label)
        assert live == ["e16", "e17", "e18", "e19"]

    @pytest.mark.parametrize(
        "queued, cancelled, compacts",
        [(15, 8, True), (16, 8, False), (13, 7, False)],
    )
    def test_compaction_threshold(self, queue, queued, cancelled, compacts):
        # Compaction needs at least eight cancelled entries, and more
        # cancelled than live ones.
        events = [queue.push(i * 1e-4, lambda: None) for i in range(queued)]
        for event in events[:cancelled]:
            event.cancel()
        assert len(queue) == (queued - cancelled if compacts else queued)

    def test_compacted_events_are_recycled(self, queue):
        events = [queue.push(i * 1e-4, lambda: None) for i in range(12)]
        for event in events[:8]:
            event.cancel()
        assert len(queue) == 4
        recycled = {id(queue.push(1.0, lambda: None)) for _ in range(8)}
        assert recycled == {id(event) for event in events[:8]}

    def test_small_queues_drain_cancels_lazily(self, queue):
        live = queue.push(2e-3, lambda: None, label="live")
        queue.push(1e-3, lambda: None, label="dead").cancel()
        # Below the compaction threshold the cancelled entry stays queued...
        assert len(queue) == 2
        popped = queue.pop()
        assert popped.cancelled and popped.label == "dead"
        assert queue.pop() is live


# ---------------------------------------------------------------------------
# Property-based equivalence: the heap pops any schedule like the reference.
# ---------------------------------------------------------------------------
class _RefEvent:
    """A reference-model event: the fields a trace observes, plus cancel()."""

    def __init__(self, model, time, sequence, label):
        self.model = model
        self.time = time
        self.sequence = sequence
        self.label = label
        self.cancelled = False

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self.model.note_cancel()


class _SortedListQueue:
    """Reference model: a plain list kept sorted by ``(time, sequence)``.

    It states the heap's compaction rule directly — once at least eight
    queued entries are cancelled and they outnumber the live ones, every
    cancelled entry leaves storage — so traces also agree on which
    cancelled events are still popped and on the length after every op.
    """

    def __init__(self):
        self.entries = []
        self.next_sequence = 0
        self.cancelled = 0

    def __len__(self):
        return len(self.entries)

    def push(self, time, callback, label=""):
        entry = _RefEvent(self, time, self.next_sequence, label)
        self.next_sequence += 1
        keys = [(e.time, e.sequence) for e in self.entries]
        self.entries.insert(bisect.bisect(keys, (time, entry.sequence)), entry)
        return entry

    def pop(self):
        entry = self.entries.pop(0)
        if entry.cancelled:
            self.cancelled -= 1
        return entry

    def note_cancel(self):
        self.cancelled += 1
        if self.cancelled >= 8 and self.cancelled * 2 > len(self.entries):
            self.entries = [e for e in self.entries if not e.cancelled]
            self.cancelled = 0


#: Times drawn from a tiny grid so ties are common.  Each op names what to
#: do and a small integer: pushes and cancels come in runs of one to eight,
#: so cancelled entries pile up often enough to trigger compaction.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "cancel"]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=200,
)


def _drive(queue, ops) -> list:
    """Apply an op sequence; return the observable trace."""
    trace = []
    pending = []
    floor = 0.0
    for op, value in ops:
        if op == "push":
            for step in range(value % 8 + 1):
                time = floor + (value + step) % 10 * 1e-4
                event = queue.push(time, lambda: None, label=f"t{time:.6f}")
                pending.append(event)
                trace.append(("push", time, len(queue)))
        elif op == "pop" and len(queue):
            event = queue.pop()
            floor = event.time
            if event in pending:
                pending.remove(event)
            trace.append(("pop", event.time, event.sequence, event.cancelled, len(queue)))
        elif op == "cancel":
            for step in range(value % 8 + 1):
                if not pending:
                    break
                event = pending.pop((value + step) % len(pending))
                event.cancel()
                trace.append(("cancel", event.time, event.sequence, len(queue)))
    while len(queue):
        event = queue.pop()
        trace.append(("pop", event.time, event.sequence, event.cancelled))
    return trace


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_heap_and_reference_traces_are_identical(ops):
    assert _drive(EventQueue(), ops) == _drive(_SortedListQueue(), ops)


@settings(max_examples=80, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    )
)
def test_bulk_pop_order_matches_reference_with_arbitrary_floats(times):
    heap, reference = EventQueue(), _SortedListQueue()
    for time in times:
        heap.push(time, lambda: None)
        reference.push(time, lambda: None)
    heap_order = [(e.time, e.sequence) for e in (heap.pop() for _ in times)]
    reference_order = [(e.time, e.sequence) for e in (reference.pop() for _ in times)]
    assert heap_order == reference_order
    assert heap_order == sorted(heap_order)
