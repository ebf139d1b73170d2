"""Discrete-event simulation core: events, the event queue and a simulator.

The hot path is tuned for million-event serving runs:

* :class:`Event` is a ``__slots__`` record, and the queue keeps a free list
  so a steady-state run allocates O(in-flight) event objects instead of
  O(total events).
* :class:`EventQueue` is a C ``heapq`` binary heap of ``(time, sequence,
  event)`` tuples, so ordering is resolved by C-level tuple comparison —
  the event object itself is never compared — and simultaneous events fire
  in the order they were scheduled.
* Cancelled events are dropped lazily when popped, and the heap is
  compacted once they make up more than half of it.
* The arrival stream, exogenous and already time-ordered, never enters
  the heap: :meth:`Simulator.run` merges it as a second ordered source
  (:attr:`Simulator.source`).  When the next arrival's ``(time,
  sequence)`` key precedes the heap top, one source call delivers an
  *arrival run*: that arrival and every successor whose key still
  precedes the heap top, read again after each delivery.  Each sequence
  number is drawn where the arrival would have been pushed, so the order
  is the all-on-heap order, ties included.  Arrivals still advance the
  causality floor, count in :attr:`Simulator.events_fired` and profile as
  ``"arrival"``, one by one.
* ``Simulator(profile=True)`` records per-label event counts and
  cumulative host wall-clock into a :class:`~repro.sim.profile.SimProfile`
  (zero overhead when disabled).

Event references stay valid until the event fires or is cancelled; after
that the engine may recycle the object for a future event, so holders must
drop their reference once it fires (every in-repo holder does — e.g. a
batch-close timer slot is cleared before the callback body runs).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.profile import SimProfile


class Event:
    """One scheduled callback.

    Events fire in ``(time, sequence)`` order, so simultaneous events fire
    in the order they were scheduled (deterministic execution).
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Optional[Callable[[], None]],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing when it is popped.

        Cancelling drops the callback reference immediately, so request
        state closed over by the callback is collectable right away instead
        of surviving in the queue until the event's time passes.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.sequence}, label={self.label!r}{state})"


#: One queue entry; compared as a tuple, so the event object never is.
_Entry = Tuple[float, int, Event]

#: Compact only when at least this many cancelled events are queued (a tiny
#: queue is cheaper to drain lazily than to rebuild).
_COMPACT_MIN_CANCELLED = 8


class EventQueue:
    """A stable binary-heap priority queue of :class:`Event` objects.

    Entries are ``(time, sequence, event)`` tuples, so the heap orders by
    ``(time, sequence)``.  Fired events come back through :meth:`release`
    and are reused by later pushes.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        #: Draws the next sequence number.  The merged arrival source ranks
        #: each arrival with it where it would have pushed, so the arrival
        #: ties against queued events exactly as a queued one would.
        self.reserve: Callable[[], int] = count().__next__
        self._free: List[Event] = []
        self._cancelled = 0
        # Causality floor: the largest time popped so far.  Scheduling below
        # it would silently corrupt event order, so push refuses.
        self._floor = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        if time < self._floor:
            raise SimulationError(
                f"event {label!r} scheduled at {time} is before the current "
                f"simulation time ({self._floor}); causality would be violated"
            )
        sequence = self.reserve()
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.sequence = sequence
            event.callback = callback
            event.label = label
            event.cancelled = False
        else:
            event = Event(time, sequence, callback, label, self)
        heappush(self._heap, (time, sequence, event))
        return event

    def take(self) -> Optional[Event]:
        """Pop the next event, or return ``None`` when the queue is empty.

        The engine's run loop uses this instead of :meth:`pop` so draining
        the queue costs no exception and no extra emptiness probe.
        """
        heap = self._heap
        if not heap:
            return None
        time, _, event = heappop(heap)
        self._floor = time
        if event.cancelled:
            self._cancelled -= 1
        return event

    def pop(self) -> Event:
        event = self.take()
        if event is None:
            raise SimulationError("cannot pop from an empty event queue")
        return event

    def top(self) -> Optional[_Entry]:
        """The next (possibly cancelled) entry, left queued; ``None`` when
        empty.  A ``(time, sequence)`` key compares against it directly."""
        heap = self._heap
        return heap[0] if heap else None

    def release(self, event: Event) -> None:
        """Return a fired (or popped-cancelled) event to the free list.

        Engine-internal: only events that are no longer queued may be
        released, and the caller must not use the object afterwards.
        """
        event.callback = None
        self._free.append(event)

    def _note_cancel(self) -> None:
        """Count a cancellation; compact once cancelled entries dominate."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled >= _COMPACT_MIN_CANCELLED and self._cancelled * 2 > len(heap):
            live = []
            free = self._free
            for entry in heap:
                if entry[2].cancelled:
                    free.append(entry[2])
                else:
                    live.append(entry)
            heapify(live)
            self._heap = live
            self._cancelled = 0


class Simulator:
    """Runs events in time order and tracks the simulated clock (seconds).

    Args:
        profile: Record per-label event counts and cumulative host
            wall-clock into :attr:`profile` (a
            :class:`~repro.sim.profile.SimProfile`).  Off by default; the
            unprofiled run loop pays nothing for the hook.
    """

    def __init__(self, profile: bool = False) -> None:
        self.queue = EventQueue()
        self.profile: Optional[SimProfile] = SimProfile() if profile else None
        self.now: float = 0.0
        self.events_fired: int = 0
        #: The arrival stream :meth:`run` merges beside the heap: ``key`` is
        #: the next arrival's ``(time, sequence)`` (``None`` once exhausted),
        #: and ``admit(budget)`` delivers the run of arrivals ahead of the
        #: heap top, counts them in :attr:`events_fired` and returns how
        #: many it delivered (at most ``budget``).
        self.source = None

    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule a callback at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event in the past: {time} < now ({self.now})"
            )
        return self.queue.push(time, callback, label)

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.now + delay, callback, label)

    # ------------------------------------------------------------------
    def run(self, max_events: int = 10_000_000) -> float:
        """Run until the heap and the source drain.

        Raises:
            SimulationError: When more than ``max_events`` events fire (a
                livelock guard).

        Returns:
            The simulated time at which execution stopped.
        """
        fired = 0
        queue = self.queue
        profile = self.profile
        top = queue.top
        take = queue.take
        # Inlined queue.release(): one list append per event instead of a
        # method call.
        free_list = queue._free
        source = self.source
        if source is not None:
            arrival = source.key
            admit = source.admit
        else:
            arrival = None
        while True:
            entry = top()
            if arrival is not None and (entry is None or arrival < entry):
                time = arrival[0]
                if time < self.now:
                    raise SimulationError(
                        f"event 'arrival' scheduled at {time} is in the past "
                        f"(now {self.now})"
                    )
                # One call delivers the whole run of arrivals ahead of the
                # heap top; it counts them in events_fired itself.
                fired += admit(max_events + 1 - fired)
                arrival = source.key
            else:
                if entry is None:
                    break
                time = entry[0]
                event = take()
                if event.cancelled:
                    # cancel() already dropped the callback reference.
                    free_list.append(event)
                    continue
                if time < self.now:
                    raise SimulationError(
                        f"event {event.label!r} scheduled at {time} is in the past "
                        f"(now {self.now})"
                    )
                self.now = time
                callback = event.callback
                if profile is not None:
                    started = perf_counter()
                    callback()
                    profile.record(event.label, perf_counter() - started)
                else:
                    callback()
                event.callback = None
                free_list.append(event)
                self.events_fired += 1
                fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
        return self.now
