"""Pluggable request dispatchers for multi-replica serving.

A dispatcher picks the replica each arrival joins, *at arrival time*, with
full visibility into live replica state (queue depths, device speed,
predicted backlog).  It is handed the arrival's time; no built-in
dispatcher reads it.  All dispatchers are deterministic given their
constructor arguments: :class:`PowerOfTwoChoicesDispatcher` derives its
randomness from a seed and is reset before every stream.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.serving.replica import ReplicaServer


class Dispatcher:
    """Interface: route one request to one replica."""

    #: Human-readable policy name used in reports.
    name = "dispatcher"

    def reset(self) -> None:
        """Clear per-stream state; called once before each request stream."""

    def select(
        self, replicas: Sequence[ReplicaServer], arrival_s: float, now: float
    ) -> int:
        """Index of the replica the arrival (at ``arrival_s``) should join."""
        raise NotImplementedError

    def snapshot(self) -> None:
        """Called just before the routed list is edited in place: keep what
        the dispatcher remembers of the list as it is now."""

    def router(self, replicas: Sequence[ReplicaServer], sim) -> Callable:
        """A one-frame route: :meth:`select` over ``replicas`` at ``sim.now``,
        its index validated.  A list edited in place is routed over live;
        its owner calls :meth:`snapshot` before each edit."""
        select = self.select

        def route(arrival_s: float) -> ReplicaServer:
            index = select(replicas, arrival_s, sim.now)
            if 0 <= index < len(replicas):
                return replicas[index]
            raise SimulationError(
                f"{self.name} selected invalid replica {index} of {len(replicas)}"
            )

        return route


class RoundRobinDispatcher(Dispatcher):
    """Cycle through replicas in arrival order (the legacy cluster policy).

    The rotation is anchored to the *identity* of the last-served replica,
    not a monotonic counter: when an elastic fleet grows or shrinks
    mid-stream the dispatcher simply continues with the replica after the
    one it served last, so no replica is skipped or double-hit by a modulus
    change.  If the last-served replica itself left the fleet, the
    dispatcher walks its *remembered* rotation forward from the vanished
    anchor and resumes at the first remembered successor still present —
    drains only ever remove a suffix of the active list, for which this
    degrades to "the slot the anchor occupied", but a crash can take the
    anchor *and* replicas before it in one step, where the old slot
    heuristic restarted the rotation at the wrong replica.

    The remembered rotation is the list last selected over, held by
    reference, not copied per call; :meth:`snapshot` freezes it into a
    tuple before its owner edits it in place.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._last: Optional[ReplicaServer] = None
        self._last_index = 0
        self._order: Sequence[ReplicaServer] = ()

    def reset(self) -> None:
        self._last = None
        self._last_index = 0
        self._order = ()

    def snapshot(self) -> None:
        self._order = tuple(self._order)

    def _resume_after_anchor_lost(self, replicas) -> int:
        order = self._order
        size = len(order)
        # The anchor's position in the remembered order is the index it was
        # served at; walk forward (wrapping) to its nearest remembered
        # successor that survived into the current fleet.
        for step in range(1, size + 1):
            candidate = order[(self._last_index + step) % size]
            for position, replica in enumerate(replicas):
                if replica is candidate:
                    return position
        # Nothing remembered survived (fleet fully replaced): restart at
        # the anchor's old slot if it still exists, else wrap.
        return self._last_index if self._last_index < len(replicas) else 0

    def select(self, replicas, arrival_s, now):
        last = self._last
        index = self._last_index
        size = len(replicas)
        if last is None:
            index = 0
        elif index < size and replicas[index] is last:
            # Fast path: unchanged fleet (the overwhelmingly common case)
            # advances in O(1), exactly like the old counter.
            index = (index + 1) % size
        else:
            for position, replica in enumerate(replicas):
                if replica is last:
                    index = (position + 1) % size
                    break
            else:
                index = self._resume_after_anchor_lost(replicas)
        self._last = replicas[index]
        self._last_index = index
        self._order = replicas
        return index


class JoinShortestQueueDispatcher(Dispatcher):
    """Join the replica with the fewest outstanding requests (ties: lowest index)."""

    name = "join-shortest-queue"

    def select(self, replicas, arrival_s, now):
        return min(range(len(replicas)), key=lambda i: (replicas[i].outstanding, i))


class LeastLoadedDispatcher(Dispatcher):
    """Join the replica with the smallest predicted time-to-drain.

    Unlike JSQ this weights queue depth by device speed, so a Centaur
    replica with a deeper queue can still win over an idle-but-slow CPU
    replica in a heterogeneous fleet.
    """

    name = "least-loaded"

    def select(self, replicas, arrival_s, now):
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].estimated_backlog_s(now), i),
        )


class PowerOfTwoChoicesDispatcher(Dispatcher):
    """Sample two distinct replicas uniformly, join the shorter queue.

    The classic load-balancing result: two random choices capture most of
    JSQ's benefit while probing only two queues.  Deterministic given the
    seed, with a consumption contract that holds under elastic fleets:
    *every* :meth:`select` call advances the RNG, including the degenerate
    single-replica fleet an autoscaler can shrink to mid-stream (which
    previously consumed nothing and silently froze the decision stream).
    Ties on ``outstanding`` are broken by the lower index in the *current*
    replica list — never by an extra draw — so a drain that shifts indices
    changes which physical replica wins a tie, but the same seed over the
    same fleet trajectory always reproduces the same choices; ``reset()``
    is the only way to rewind the stream.
    """

    name = "power-of-two-choices"

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise SimulationError(f"seed must be non-negative, got {seed}")
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def select(self, replicas, arrival_s, now):
        count = len(replicas)
        if count == 1:
            # The choice is forced but the stream must still advance: a
            # fleet that dips to one active replica and later scales back
            # up would otherwise resume from a stale generator state.
            self._rng.random()
            return 0
        first, second = self._rng.choice(count, size=2, replace=False)
        candidates = (int(first), int(second))
        return min(candidates, key=lambda i: (replicas[i].outstanding, i))
