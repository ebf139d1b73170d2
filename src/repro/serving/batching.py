"""Batching policies for the serving simulation.

Recommendation servers trade latency for throughput by batching requests
before dispatching them to the inference engine.  Policies expose two
complementary interfaces:

* The *offline* interface (:meth:`BatchingPolicy.form_batches`) groups a
  complete, pre-sorted arrival stream into batches ahead of time.  It exists
  for policies whose decisions depend only on arrival times, and it is what
  the legacy replay oracle (``tests/serving/legacy_oracle.py``) consumes.
* The *online* interface (:meth:`BatchingPolicy.on_enqueue` /
  :meth:`BatchingPolicy.on_timer` / :meth:`BatchingPolicy.on_device_idle`)
  is driven by the event-driven serving core (:mod:`repro.serving.replica`).
  The policy reacts to queue events as they happen — which is what makes
  *queue-reactive* policies (close when the device idles, shrink the window
  as the queue deepens) expressible at all.  Its pending batch is the list
  of the queued arrival times, oldest first: ``pending[0]`` is the first
  arrival's time.

Provided policies:

* :class:`FixedSizeBatching` — wait until exactly ``batch_size`` requests
  have queued (optionally bounded by a maximum wait), then dispatch.
* :class:`TimeoutBatching` — dispatch whatever has queued after a fixed
  batching window, capped at a maximum batch size (the policy most
  user-facing services deploy).
* :class:`CloseOnFullBatching` — work-conserving greedy batching: dispatch
  immediately while the device is idle, otherwise accumulate up to a cap
  (requires the event-driven simulator).
* :class:`AdaptiveWindowBatching` — a batching window that shrinks as the
  queue deepens (requires the event-driven simulator).
* :class:`SizeBucketedBatching` — close on a timeout or when the largest
  size bucket fills, and execute each batch padded up to the next bucket
  (models kernels compiled for a fixed set of batch shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.workloads.arrivals import InferenceRequest


@dataclass(frozen=True)
class BatchSignal:
    """What a batching policy wants the replica to do after a queue event.

    Attributes:
        close: Dispatch the entire pending batch now.
        timer_at: Absolute simulated time at which to (re-)arm the batch
            close timer; ``None`` leaves any armed timer untouched.
    """

    close: bool = False
    timer_at: Optional[float] = None


#: Signal meaning "no action".
NO_ACTION = BatchSignal()


class BatchingPolicy:
    """Interface: groups queued requests into dispatchable batches.

    Policies are immutable; all decision state is derived from the pending
    queue passed to each hook, so one policy instance can safely drive many
    replicas at once.
    """

    # -- offline interface ---------------------------------------------
    def form_batches(
        self, requests: Sequence[InferenceRequest]
    ) -> List[Tuple[float, List[InferenceRequest]]]:
        """Group arrivals into batches ahead of time.

        Args:
            requests: All arrivals, sorted by arrival time.

        Returns:
            A list of ``(ready_time_s, batch_requests)`` tuples where
            ``ready_time_s`` is the earliest time the batch may start
            executing (all members have arrived and any batching window has
            elapsed).

        Raises:
            SimulationError: For queue-reactive policies whose decisions
                depend on device state and therefore cannot be formed
                open-loop.
        """
        raise SimulationError(
            f"{type(self).__name__} is queue-reactive and cannot form batches "
            "open-loop; serve it through the event-driven Fleet"
        )

    # -- online interface ----------------------------------------------
    def on_enqueue(
        self,
        pending: Sequence[float],
        now: float,
        device_idle: bool,
    ) -> BatchSignal:
        """React to an arrival joining the pending batch (its time is
        already in ``pending``)."""
        return NO_ACTION

    def on_timer(
        self,
        pending: Sequence[float],
        now: float,
        device_idle: bool,
    ) -> BatchSignal:
        """React to the batch-close timer firing with a non-empty pending
        batch.  The default closes the batch."""
        return BatchSignal(close=True)

    def on_device_idle(
        self,
        pending: Sequence[float],
        now: float,
    ) -> BatchSignal:
        """React to the device going idle with requests still pending."""
        return NO_ACTION

    def execution_batch_size(self, formed_size: int) -> int:
        """Batch size the device actually executes for a formed batch.

        Policies that pad batches to preferred shapes override this; the
        default executes exactly what was formed.
        """
        return formed_size


def default_batching() -> "TimeoutBatching":
    """The serving stack's shared default: a 2 ms window capped at 64.

    Every simulator front-end (event-driven, legacy oracle, cluster) must
    default to the *same* policy or the equivalence contract between them
    silently breaks — construct it here only.
    """
    return TimeoutBatching(window_s=2e-3, max_batch_size=64)


@dataclass(frozen=True)
class FixedSizeBatching(BatchingPolicy):
    """Dispatch once ``batch_size`` requests are available (or a wait cap hits).

    Attributes:
        batch_size: Target batch size.
        max_wait_s: Upper bound on how long the oldest queued request may
            wait for the batch to fill; a partial batch dispatches when it is
            reached.
    """

    batch_size: int
    max_wait_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_wait_s <= 0:
            raise SimulationError(f"max_wait_s must be positive, got {self.max_wait_s}")

    def form_batches(self, requests):
        batches: List[Tuple[float, List[InferenceRequest]]] = []
        pending: List[InferenceRequest] = []
        for request in requests:
            # Before admitting this request, flush the pending batch if its
            # oldest member would exceed the wait cap by waiting for it.
            while pending and request.arrival_time_s > pending[0].arrival_time_s + self.max_wait_s:
                ready = pending[0].arrival_time_s + self.max_wait_s
                batches.append((ready, pending))
                pending = []
            pending.append(request)
            if len(pending) >= self.batch_size:
                batches.append((pending[-1].arrival_time_s, pending))
                pending = []
        if pending:
            ready = (
                pending[0].arrival_time_s + self.max_wait_s
                if self.max_wait_s != float("inf")
                else pending[-1].arrival_time_s
            )
            batches.append((ready, pending))
        return batches

    def on_enqueue(self, pending, now, device_idle):
        if len(pending) >= self.batch_size:
            return BatchSignal(close=True)
        if len(pending) == 1 and self.max_wait_s != float("inf"):
            return BatchSignal(timer_at=pending[0] + self.max_wait_s)
        return NO_ACTION


@dataclass(frozen=True)
class TimeoutBatching(BatchingPolicy):
    """Dispatch whatever arrived within a batching window.

    Attributes:
        window_s: Length of the batching window, measured from the arrival
            of the first request of the batch.
        max_batch_size: Hard cap; a full batch dispatches immediately.
    """

    window_s: float
    max_batch_size: int = 128

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise SimulationError(f"window_s must be positive, got {self.window_s}")
        if self.max_batch_size <= 0:
            raise SimulationError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )

    def form_batches(self, requests):
        batches: List[Tuple[float, List[InferenceRequest]]] = []
        pending: List[InferenceRequest] = []
        window_end = 0.0
        for request in requests:
            if not pending:
                pending = [request]
                window_end = request.arrival_time_s + self.window_s
                continue
            if request.arrival_time_s <= window_end and len(pending) < self.max_batch_size:
                pending.append(request)
                if len(pending) >= self.max_batch_size:
                    batches.append((request.arrival_time_s, pending))
                    pending = []
            else:
                batches.append((window_end, pending))
                pending = [request]
                window_end = request.arrival_time_s + self.window_s
        if pending:
            batches.append((window_end, pending))
        return batches

    def on_enqueue(self, pending, now, device_idle):
        if len(pending) >= self.max_batch_size:
            return BatchSignal(close=True)
        if len(pending) == 1:
            return BatchSignal(timer_at=pending[0] + self.window_s)
        return NO_ACTION


@dataclass(frozen=True)
class CloseOnFullBatching(BatchingPolicy):
    """Work-conserving greedy batching (queue-reactive; event-driven only).

    While the device is idle every arrival dispatches immediately (latency
    first); while the device is busy arrivals accumulate and dispatch as one
    batch the moment the device frees, capped at ``batch_size`` (throughput
    recovers exactly when the queue needs it).  This is the policy dynamic
    batching systems such as continuous-batching servers implement, and it
    cannot be expressed open-loop because its decisions depend on device
    state.

    Attributes:
        batch_size: Hard cap on a dispatched batch.
        max_wait_s: Safety timeout so requests cannot starve if the device
            never reports idle (defaults to no timeout).
    """

    batch_size: int = 64
    max_wait_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_wait_s <= 0:
            raise SimulationError(f"max_wait_s must be positive, got {self.max_wait_s}")

    def on_enqueue(self, pending, now, device_idle):
        if device_idle or len(pending) >= self.batch_size:
            return BatchSignal(close=True)
        if len(pending) == 1 and self.max_wait_s != float("inf"):
            return BatchSignal(timer_at=pending[0] + self.max_wait_s)
        return NO_ACTION

    def on_device_idle(self, pending, now):
        return BatchSignal(close=True)


@dataclass(frozen=True)
class AdaptiveWindowBatching(BatchingPolicy):
    """A batching window that shrinks as the queue deepens (event-driven only).

    With one pending request the policy waits the full ``base_window_s`` for
    batching partners; every additional pending request divides the window,
    so bursts dispatch quickly while trickles still batch.  The effective
    deadline for a pending batch of ``n`` requests is::

        first_arrival + max(min_window_s, base_window_s / (1 + depth_sensitivity * (n - 1)))

    Attributes:
        base_window_s: Window applied to a lone pending request.
        max_batch_size: Hard cap; a full batch dispatches immediately.
        depth_sensitivity: How aggressively depth shortens the window.
        min_window_s: Floor so the window never collapses entirely.
    """

    base_window_s: float
    max_batch_size: int = 128
    depth_sensitivity: float = 1.0
    min_window_s: float = 0.0

    def __post_init__(self) -> None:
        if self.base_window_s <= 0:
            raise SimulationError(
                f"base_window_s must be positive, got {self.base_window_s}"
            )
        if self.max_batch_size <= 0:
            raise SimulationError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.depth_sensitivity < 0:
            raise SimulationError(
                f"depth_sensitivity must be non-negative, got {self.depth_sensitivity}"
            )
        if self.min_window_s < 0:
            raise SimulationError(
                f"min_window_s must be non-negative, got {self.min_window_s}"
            )

    def _deadline(self, pending) -> float:
        window = self.base_window_s / (1.0 + self.depth_sensitivity * (len(pending) - 1))
        return pending[0] + max(self.min_window_s, window)

    def on_enqueue(self, pending, now, device_idle):
        if len(pending) >= self.max_batch_size:
            return BatchSignal(close=True)
        deadline = self._deadline(pending)
        if deadline <= now:
            return BatchSignal(close=True)
        return BatchSignal(timer_at=deadline)


@dataclass(frozen=True)
class SizeBucketedBatching(BatchingPolicy):
    """Close on a window or when the largest bucket fills; execute padded.

    Models serving stacks whose kernels are compiled for a fixed set of batch
    shapes: a formed batch of ``n`` requests executes with the latency and
    energy of the smallest bucket >= ``n``.  (Event-driven only.)

    Attributes:
        window_s: Batching window measured from the first pending arrival.
        buckets: Strictly increasing executable batch sizes.
    """

    window_s: float
    buckets: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise SimulationError(f"window_s must be positive, got {self.window_s}")
        if not self.buckets:
            raise SimulationError("buckets must be non-empty")
        if any(b <= 0 for b in self.buckets):
            raise SimulationError(f"buckets must be positive, got {self.buckets}")
        if any(b >= c for b, c in zip(self.buckets, self.buckets[1:])):
            raise SimulationError(f"buckets must be strictly increasing, got {self.buckets}")

    def on_enqueue(self, pending, now, device_idle):
        if len(pending) >= self.buckets[-1]:
            return BatchSignal(close=True)
        if len(pending) == 1:
            return BatchSignal(timer_at=pending[0] + self.window_s)
        return NO_ACTION

    def execution_batch_size(self, formed_size: int) -> int:
        for bucket in self.buckets:
            if bucket >= formed_size:
                return bucket
        return formed_size
