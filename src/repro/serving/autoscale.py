"""SLA-driven autoscaling: elastic replica fleets on the event simulator.

A statically provisioned fleet sized for peak traffic wastes replica-hours
all night; one sized for the mean gives back the SLA at every crest.  This
module closes that gap: a :class:`~repro.serving.fleet.Fleet` with an
:class:`AutoscalerPolicy` serves a request stream through a pool of
replicas whose *active* subset the policy adjusts at periodic control
ticks — timed events on the shared :class:`repro.sim.engine.Simulator`,
exactly like arrivals and batch closes.

Lifecycle semantics mirror real fleets:

* **Warm-up** — a commissioned replica takes ``warmup_s`` simulated seconds
  before it can receive traffic (model load, FPGA reconfiguration); it is
  paid for (accrues replica-seconds) from the moment it is commissioned.
* **Drain-before-stop** — a decommissioned replica stops receiving new
  requests immediately but finishes everything already routed to it; it is
  paid for until its last batch completes.  No request is ever dropped, so
  the conservation invariant of :func:`repro.serving.replica.drive_stream`
  holds unchanged.
* **Cost accounting** — the run's :class:`AutoscaleReport` (attached to the
  :class:`~repro.serving.cluster.ClusterReport`) tracks replica-seconds,
  the replica-count timeline and scale events.

Policies:

* :class:`QueueDepthPolicy` — reactive: scale on outstanding requests per
  active replica, with high/low watermark hysteresis and a cooldown.
* :class:`TargetUtilizationPolicy` — reactive: hold device utilization near
  a target (the classic horizontal-pod-autoscaler rule), with a deadband
  and a cooldown.
* :class:`ScheduledPolicy` — an explicit (time, replicas) schedule.
* :class:`EWMAPolicy` — predictive: an exponentially weighted moving
  average of the observed arrival rate, divided by per-replica capacity.

The elastic fleet is a :class:`~repro.serving.cluster.ReplicaPool` of
``max_replicas`` slots managed by an armed :class:`_AutoscaleController`;
``replicas`` of them (the ``min_replicas`` floor when ``replicas`` is 1)
are active at time zero.  A fault schedule arms the controller too, with
no policy: restarting a crashed replica is a provisioning act.  A fleet
without a policy or faults arms no controller — autoscaling is strictly
opt-in.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.serving.cluster import ClusterReport, ReplicaPool

from repro.errors import ConfigurationError, SimulationError
from repro.serving.replica import Controller, ReplicaServer
from repro.sim.engine import Simulator
from repro.utils.specs import parse_kv, parse_kv_numbers, read_number, split_spec


# ----------------------------------------------------------------------
# Observations and the policy interface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterObservation:
    """What an autoscaler sees at one control tick.

    Attributes:
        time_s: Simulated time of the tick.
        interval_s: Control interval (time since the previous tick).
        active_replicas: Replicas currently accepting traffic.
        starting_replicas: Replicas commissioned but still warming up.
        draining_replicas: Replicas finishing their last requests.
        total_outstanding: Requests routed to active replicas and not yet
            completed.
        queue_depth_per_replica: ``total_outstanding / active_replicas``.
        utilization: Fraction of the last interval the active fleet's
            devices spent executing (may exceed 1.0 when a batch longer
            than the interval was started).
        arrival_rate_qps: Arrivals observed over the last interval,
            divided by the interval.
        replica_capacity_qps: Saturation throughput of one replica
            (best batch-size throughput of the template device).
        min_replicas: Lower fleet bound the controller enforces.
        max_replicas: Upper fleet bound the controller enforces.
    """

    time_s: float
    interval_s: float
    active_replicas: int
    starting_replicas: int
    draining_replicas: int
    total_outstanding: int
    queue_depth_per_replica: float
    utilization: float
    arrival_rate_qps: float
    replica_capacity_qps: float
    min_replicas: int
    max_replicas: int

    @property
    def committed_replicas(self) -> int:
        """Replicas being paid for that will serve traffic (active + warming)."""
        return self.active_replicas + self.starting_replicas


class AutoscalerPolicy:
    """Interface: map one :class:`ClusterObservation` to a fleet size.

    The controller clamps the returned value into ``[min_replicas,
    max_replicas]``, so policies may return any integer.  Policies carry
    per-stream state (cooldown clocks, EWMA accumulators); :meth:`reset` is
    called once before every stream so one instance can drive many runs
    deterministically.
    """

    #: Human-readable policy name used in reports.
    name = "autoscaler"

    def reset(self) -> None:
        """Clear per-stream state; called once before each request stream."""

    def desired_replicas(self, observation: ClusterObservation) -> int:
        """Fleet size this policy wants after observing one control tick."""
        raise NotImplementedError


class _HysteresisPolicy(AutoscalerPolicy):
    """Shared cooldown bookkeeping for the reactive policies."""

    def __init__(self, cooldown_s: float):
        if cooldown_s < 0:
            raise SimulationError(f"cooldown_s must be non-negative, got {cooldown_s}")
        self.cooldown_s = cooldown_s
        self._last_change_s = -math.inf

    def reset(self) -> None:
        self._last_change_s = -math.inf

    def _cooling_down(self, now: float) -> bool:
        return now - self._last_change_s < self.cooldown_s

    def _decide(self, observation: ClusterObservation, desired: int) -> int:
        """Clamp a raw desire into the fleet bounds and account for it.

        The cooldown clock restarts only when the *clamped* decision moves
        the fleet: a policy pinned at ``max_replicas`` under sustained
        overload keeps asking for more, and those no-ops must not hold the
        eventual scale-in hostage for a cooldown each.
        """
        clamped = max(
            observation.min_replicas, min(observation.max_replicas, desired)
        )
        if clamped != observation.committed_replicas:
            self._last_change_s = observation.time_s
        return clamped


class QueueDepthPolicy(_HysteresisPolicy):
    """Reactive scaling on outstanding requests per active replica.

    Scale out by ``step`` when the per-replica queue depth exceeds
    ``high_watermark``; scale in by ``step`` when it falls below
    ``low_watermark``.  The gap between the watermarks is the hysteresis
    band that keeps the fleet from thrashing, and ``cooldown_s`` bounds how
    often the fleet may change at all.
    """

    name = "queue-depth"

    def __init__(
        self,
        high_watermark: float = 8.0,
        low_watermark: float = 1.0,
        step: int = 1,
        cooldown_s: float = 0.0,
    ):
        super().__init__(cooldown_s)
        if high_watermark <= low_watermark:
            raise SimulationError(
                f"high_watermark ({high_watermark}) must exceed low_watermark "
                f"({low_watermark}); the gap is the hysteresis band"
            )
        if low_watermark < 0:
            raise SimulationError(
                f"low_watermark must be non-negative, got {low_watermark}"
            )
        if step <= 0:
            raise SimulationError(f"step must be positive, got {step}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.step = step

    def desired_replicas(self, observation: ClusterObservation) -> int:
        committed = observation.committed_replicas
        if self._cooling_down(observation.time_s):
            return committed
        depth = observation.queue_depth_per_replica
        if depth > self.high_watermark:
            return self._decide(observation, committed + self.step)
        if depth < self.low_watermark:
            return self._decide(observation, committed - self.step)
        return committed


class TargetUtilizationPolicy(_HysteresisPolicy):
    """Reactive scaling toward a device-utilization target.

    Applies the proportional rule horizontal autoscalers use::

        desired = ceil(committed * utilization / target)

    but only when utilization leaves the ``target ± deadband`` band — the
    deadband plus ``cooldown_s`` is the hysteresis that keeps a fleet
    hovering near its target from oscillating.
    """

    name = "target-utilization"

    def __init__(
        self,
        target: float = 0.6,
        deadband: float = 0.1,
        cooldown_s: float = 0.0,
    ):
        super().__init__(cooldown_s)
        if not 0.0 < target <= 1.0:
            raise SimulationError(f"target must be in (0, 1], got {target}")
        if deadband < 0 or deadband >= target:
            raise SimulationError(
                f"deadband must be in [0, target), got {deadband} (target {target})"
            )
        self.target = target
        self.deadband = deadband

    def desired_replicas(self, observation: ClusterObservation) -> int:
        committed = observation.committed_replicas
        if self._cooling_down(observation.time_s):
            return committed
        utilization = observation.utilization
        if abs(utilization - self.target) <= self.deadband:
            return committed
        return self._decide(
            observation, math.ceil(committed * utilization / self.target)
        )


class ScheduledPolicy(AutoscalerPolicy):
    """Time-of-day scaling from an explicit ``(time_s, replicas)`` schedule.

    At any tick the fleet size is the count of the latest schedule entry at
    or before the tick; before the first entry the controller's
    ``min_replicas`` floor applies (the policy returns 0, which the
    controller clamps up).
    """

    name = "scheduled"

    def __init__(self, schedule: Sequence[Tuple[float, int]]):
        entries = [(float(time_s), int(count)) for time_s, count in schedule]
        if not entries:
            raise SimulationError("a schedule needs at least one (time, replicas) entry")
        for (earlier, _), (later, _) in zip(entries, entries[1:]):
            if later <= earlier:
                raise SimulationError(
                    f"schedule times must be strictly increasing, got {later} "
                    f"after {earlier}"
                )
        for time_s, count in entries:
            if time_s < 0:
                raise SimulationError(f"schedule times must be non-negative, got {time_s}")
            if count <= 0:
                raise SimulationError(f"scheduled replica counts must be positive, got {count}")
        self.schedule: Tuple[Tuple[float, int], ...] = tuple(entries)

    def desired_replicas(self, observation: ClusterObservation) -> int:
        desired = 0
        for time_s, count in self.schedule:
            if time_s > observation.time_s:
                break
            desired = count
        return desired


class EWMAPolicy(AutoscalerPolicy):
    """Predictive scaling on a smoothed estimate of the arrival rate.

    Tracks ``rate <- alpha * observed + (1 - alpha) * rate`` across ticks
    and sizes the fleet at ``ceil(rate * headroom / capacity)``, where
    capacity is per-replica saturation throughput (taken from the
    observation when not given explicitly).  ``headroom > 1`` buys slack
    for the burstiness the moving average smooths away.
    """

    name = "ewma"

    def __init__(
        self,
        alpha: float = 0.3,
        headroom: float = 1.2,
        replica_capacity_qps: Optional[float] = None,
    ):
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
        if headroom <= 0:
            raise SimulationError(f"headroom must be positive, got {headroom}")
        if replica_capacity_qps is not None and replica_capacity_qps <= 0:
            raise SimulationError(
                f"replica_capacity_qps must be positive, got {replica_capacity_qps}"
            )
        self.alpha = alpha
        self.headroom = headroom
        self.replica_capacity_qps = replica_capacity_qps
        self._rate_qps: Optional[float] = None

    def reset(self) -> None:
        self._rate_qps = None

    def desired_replicas(self, observation: ClusterObservation) -> int:
        observed = observation.arrival_rate_qps
        if self._rate_qps is None:
            self._rate_qps = observed
        else:
            self._rate_qps = self.alpha * observed + (1.0 - self.alpha) * self._rate_qps
        capacity = (
            self.replica_capacity_qps
            if self.replica_capacity_qps is not None
            else observation.replica_capacity_qps
        )
        if capacity <= 0:
            raise SimulationError(
                "EWMA policy needs a positive per-replica capacity; pass "
                "replica_capacity_qps or serve through a fleet that derives it"
            )
        return math.ceil(self._rate_qps * self.headroom / capacity)


# ----------------------------------------------------------------------
# The elastic fleet
# ----------------------------------------------------------------------
_STOPPED = "stopped"
_STARTING = "starting"
_ACTIVE = "active"
_DRAINING = "draining"


@dataclass
class _ReplicaLifecycle:
    """Commission/stop bookkeeping for one pool slot."""

    state: str = _STOPPED
    intervals: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    drain_marked_s: float = 0.0
    activation_event: Optional[object] = None

    def commission(self, now: float) -> None:
        self.intervals.append((now, None))

    def close(self, at_s: float) -> None:
        start, _ = self.intervals[-1]
        self.intervals[-1] = (start, max(at_s, start))

    def billed_seconds(self, at_s: float) -> float:
        """Seconds billed up to ``at_s`` by the intervals as they stand."""
        total = 0.0
        for start, stop in self.intervals:
            if start > at_s:
                break
            total += (stop if stop is not None and stop <= at_s else at_s) - start
        return total


@dataclass(frozen=True)
class AutoscaleReport:
    """Elastic-fleet accounting of one autoscaled serving run.

    Attributes:
        policy: Name of the :class:`~repro.serving.autoscale.AutoscalerPolicy`.
        control_interval_s: Spacing of the controller's timed events.
        warmup_s: Commission-to-traffic delay each new replica paid.
        timeline: ``(time_s, commissioned_replicas)`` change points —
            commissioned means paid for: active, warming up, or draining.
        replica_seconds: Total commissioned time summed over the fleet (the
            replica-hours bill, in seconds).
        peak_replicas: Largest commissioned count the run reached.
        scale_up_events: Replica commissions (including drain reclaims).
        scale_down_events: Replica decommissions (including warm-up cancels).
        crashes: Replica crashes injected by a fault schedule.
        restarts: Crash restarts that recommissioned a replica.
    """

    policy: str
    control_interval_s: float
    warmup_s: float
    timeline: Tuple[Tuple[float, int], ...]
    replica_seconds: float
    peak_replicas: int
    scale_up_events: int
    scale_down_events: int
    crashes: int = 0
    restarts: int = 0

    def replicas_at(self, time_s: float) -> int:
        """Commissioned replica count at a simulated time."""
        count = self.timeline[0][1]
        for change_s, changed in self.timeline:
            if change_s > time_s:
                break
            count = changed
        return count


class _AutoscaleController(Controller):
    """Owns replica lifecycle state, routing and the periodic control events.

    ``active`` is the dispatcher's candidate list: the replicas of the
    :data:`_ACTIVE` pool slots, in slot order.  It is updated on every
    lifecycle transition instead of being rebuilt per arrival.
    """

    def __init__(
        self,
        pool: "ReplicaPool",
        sim: Simulator,
        replicas: Sequence[ReplicaServer],
        start: int,
    ):
        self.pool = pool
        self.spec = spec = pool.spec
        self.warmup_s = spec.warmup_s if spec.warmup_s is not None else 0.0
        self.sim = sim
        self.replicas = list(replicas)
        self.lifecycles = [_ReplicaLifecycle() for _ in replicas]
        self.active_slots: List[int] = []
        self.active: List[ReplicaServer] = []
        # Routes over the live list: _set_state edits it in place, after
        # letting the dispatcher snapshot it.
        self._route_active = pool.dispatcher.router(self.active, sim)
        for index in range(start):
            self._set_state(index, _ACTIVE)
            self.lifecycles[index].commission(0.0)
        self.timeline: List[Tuple[float, int]] = [(0.0, start)]
        self.scale_up_events = 0
        self.scale_down_events = 0
        self.crash_events = 0
        self.restart_events = 0
        self._shed_sink = None
        self._arrivals_at_last_tick = 0
        self._busy_at_last_tick = 0.0
        self._capacity_qps = 0.0

    def arm(self) -> None:
        policy = self.spec.policy
        if policy is not None:
            policy.reset()
            self._capacity_qps = self.pool.capacity_qps
            self.sim.schedule_at(
                self.spec.control_interval_s, self._on_tick, label="autoscale:tick"
            )

    # -- lifecycle -----------------------------------------------------
    def _set_state(self, index: int, state: str) -> None:
        """Move one pool slot to ``state``, keeping ``active`` in step."""
        lifecycle = self.lifecycles[index]
        if (lifecycle.state == _ACTIVE) != (state == _ACTIVE):
            position = bisect.bisect_left(self.active_slots, index)
            self.pool.dispatcher.snapshot()
            if state == _ACTIVE:
                self.active_slots.insert(position, index)
                self.active.insert(position, self.replicas[index])
            else:
                del self.active_slots[position]
                del self.active[position]
        lifecycle.state = state

    def _stop(self, index: int, at_s: float) -> None:
        """Decommission a slot (cancelling any warm-up), closing its billing
        interval at ``at_s``."""
        lifecycle = self.lifecycles[index]
        if lifecycle.activation_event is not None:
            lifecycle.activation_event.cancel()
            lifecycle.activation_event = None
        lifecycle.close(at_s)
        self._set_state(index, _STOPPED)

    def _commission(self, index: int, now: float, warmup_s: float) -> None:
        """Start paying for a stopped slot; it serves after ``warmup_s``."""
        lifecycle = self.lifecycles[index]
        lifecycle.commission(now)
        if warmup_s <= 0.0:
            self._set_state(index, _ACTIVE)
        else:
            self._set_state(index, _STARTING)
            lifecycle.activation_event = self.sim.schedule_at(
                now + warmup_s,
                lambda i=index: self._on_warm(i),
                label="autoscale:warm",
            )

    # -- routing -------------------------------------------------------
    def route(self, arrival_s: float) -> ReplicaServer:
        if self.active:
            return self._route_active(arrival_s)
        if self._shed_sink is not None:
            # Total outage under fault injection: arrivals are shed
            # (counted, never completed) instead of crashing the run.
            return self._shed_sink
        raise SimulationError(
            "autoscaling left no active replica to route to (controller bug)"
        )

    # -- fault-injection hooks -----------------------------------------
    def install_shed_sink(self, sink) -> None:
        """Arm the total-outage sink (chaos runs only)."""
        self._shed_sink = sink

    def highest_active_index(self) -> Optional[int]:
        """Default crash/brownout target: mirrors the scale-down order."""
        return self.active_slots[-1] if self.active_slots else None

    def billed_seconds(self, at_s: float) -> float:
        """Replica-seconds billed up to ``at_s`` (incident costs).

        Read after the run, this uses the final billing intervals: a reaped
        drain's stop is back-dated to its last batch finish, which a
        snapshot taken at ``at_s`` could not yet know.
        """
        return sum(lifecycle.billed_seconds(at_s) for lifecycle in self.lifecycles)

    def crash_replica(
        self, index: int, on_inflight: str
    ) -> Tuple[Optional[str], int, int]:
        """Kill one pool slot immediately (no drain).

        Returns ``(state_before, redispatched, shed)``; ``state_before`` is
        ``None`` when the slot was already stopped (the crash is a no-op).
        A warming replica dies before serving, so it has nothing in flight;
        an active or draining replica's salvaged requests are re-dispatched
        to the surviving fleet or shed, per ``on_inflight``.
        """
        now = self.sim.now
        state = self.lifecycles[index].state
        if state == _STOPPED:
            return None, 0, 0
        # A warming slot's replica was emptied before it stopped (drained or
        # crashed), so it salvages nothing.
        salvaged = self.replicas[index].crash()
        self._stop(index, now)
        self.crash_events += 1
        redispatched = shed = 0
        if salvaged and on_inflight == "redispatch" and self.active:
            # Original arrival times (and model tags) are preserved, so the
            # crash delay shows up in the re-dispatched requests' latencies.
            for arrival_s, model_name in salvaged:
                self.route(arrival_s).submit(arrival_s, model_name)
            redispatched = len(salvaged)
        else:
            shed = len(salvaged)
        self._record_timeline(now)
        return state, redispatched, shed

    def restore_replica(self, index: int, warmup_s: float) -> bool:
        """Recommission a crashed slot; False when the autoscaler already
        reclaimed it (service was restored through the scaling path)."""
        if self.lifecycles[index].state != _STOPPED:
            return False
        now = self.sim.now
        self.restart_events += 1
        self._commission(index, now, warmup_s)
        self._record_timeline(now)
        return True

    # -- control loop --------------------------------------------------
    def _observe(self) -> ClusterObservation:
        now = self.sim.now
        interval = self.spec.control_interval_s
        states = [lifecycle.state for lifecycle in self.lifecycles]
        active = len(self.active)
        outstanding = sum(replica.outstanding for replica in self.active)
        arrivals = self.stream.count
        arrival_rate = (arrivals - self._arrivals_at_last_tick) / interval
        self._arrivals_at_last_tick = arrivals
        busy = sum(
            replica.busy_time_s
            for replica, lifecycle in zip(self.replicas, self.lifecycles)
            if lifecycle.state != _STOPPED or lifecycle.intervals
        )
        utilization = (busy - self._busy_at_last_tick) / (interval * max(active, 1))
        self._busy_at_last_tick = busy
        return ClusterObservation(
            time_s=now,
            interval_s=interval,
            active_replicas=active,
            starting_replicas=states.count(_STARTING),
            draining_replicas=states.count(_DRAINING),
            total_outstanding=outstanding,
            queue_depth_per_replica=outstanding / max(active, 1),
            utilization=utilization,
            arrival_rate_qps=arrival_rate,
            replica_capacity_qps=self._capacity_qps,
            min_replicas=self.spec.min_replicas,
            max_replicas=self.spec.max_replicas,
        )

    def _on_tick(self) -> None:
        now = self.sim.now
        self._reap_drained(now)
        observation = self._observe()
        desired = self.spec.policy.desired_replicas(observation)
        desired = max(self.spec.min_replicas, min(self.spec.max_replicas, desired))
        committed = observation.committed_replicas
        if desired > committed:
            self._scale_up(desired - committed, now)
        elif desired < committed:
            self._scale_down(committed - desired, now)
        self._record_timeline(now)
        if not self._finished():
            self.sim.schedule_at(
                now + self.spec.control_interval_s,
                self._on_tick,
                label="autoscale:tick",
            )

    def _finished(self) -> bool:
        """True when the control loop has nothing left to manage.

        After the stream ends the controller keeps ticking only while work
        is executing or queued behind a device.  A replica whose device is
        idle but still holds a *pending* batch (a policy that never closed
        it, or a batching window yet to elapse) needs no controller: any
        armed close timer is its own simulator event, and a stranded
        partial batch is flushed by :func:`drive_stream` once the event
        queue drains — which requires the tick chain to stop, not to keep
        the simulation alive forever.
        """
        if not self.stream.exhausted:
            return False
        return all(
            replica.outstanding == 0 or replica.device_idle
            for replica in self.replicas
        )

    def _reap_drained(self, now: float) -> None:
        """Stop draining replicas whose last routed request has completed.

        The stop time is the replica's actual last batch-finish (tracked by
        the server), not the tick that observed it, so replica-seconds are
        exact rather than quantized to the control interval.
        """
        for index, lifecycle in enumerate(self.lifecycles):
            if lifecycle.state != _DRAINING:
                continue
            replica = self.replicas[index]
            if replica.outstanding == 0 and not replica.has_pending:
                self._stop(index, max(lifecycle.drain_marked_s, replica.last_finish_s))

    def _scale_up(self, count: int, now: float) -> None:
        # Reclaim draining replicas first: they are still warm, so
        # re-activating one is free and keeps its accounting interval open.
        for index, lifecycle in enumerate(self.lifecycles):
            if count == 0:
                return
            if lifecycle.state == _DRAINING:
                self._set_state(index, _ACTIVE)
                self.scale_up_events += 1
                count -= 1
        for index, lifecycle in enumerate(self.lifecycles):
            if count == 0:
                return
            if lifecycle.state == _STOPPED:
                self._commission(index, now, self.warmup_s)
                self.scale_up_events += 1
                count -= 1

    def _on_warm(self, index: int) -> None:
        lifecycle = self.lifecycles[index]
        lifecycle.activation_event = None
        if lifecycle.state == _STARTING:
            self._set_state(index, _ACTIVE)
            self._record_timeline(self.sim.now)

    def _scale_down(self, count: int, now: float) -> None:
        # Cancel still-warming replicas first (they never served traffic),
        # then drain active replicas from the highest pool index down so the
        # choice is deterministic.
        for index in range(len(self.lifecycles) - 1, -1, -1):
            if count == 0:
                return
            if self.lifecycles[index].state == _STARTING:
                self._stop(index, now)
                self.scale_down_events += 1
                count -= 1
        for index in self.active_slots[::-1]:
            # Never drain below one active replica, whatever the policy asked.
            if count == 0 or len(self.active) <= 1:
                return
            self._set_state(index, _DRAINING)
            self.lifecycles[index].drain_marked_s = now
            self.scale_down_events += 1
            count -= 1

    def _record_timeline(self, now: float) -> None:
        commissioned = sum(
            1 for lifecycle in self.lifecycles if lifecycle.state != _STOPPED
        )
        if self.timeline[-1][1] != commissioned:
            self.timeline.append((now, commissioned))

    # -- reporting -----------------------------------------------------
    def finish(self, report: ClusterReport, horizon_s: float) -> ClusterReport:
        """Close the billing intervals and attach the elastic accounting."""
        now = horizon_s
        self._reap_drained(now)
        # The tick chain may have stopped before observing the last drains;
        # the timeline must agree with the billing intervals just closed.
        self._record_timeline(now)
        makespan = max(
            [replica.last_finish_s for replica in self.replicas if replica.executed],
            default=now,
        )
        horizon = max(now, makespan)
        for lifecycle in self.lifecycles:
            if lifecycle.state != _STOPPED:
                # Still-commissioned replicas are paid through end of run.
                lifecycle.close(horizon)
        replica_seconds = self.billed_seconds(horizon)
        policy = self.spec.policy
        autoscale = AutoscaleReport(
            policy=policy.name if policy is not None else "static",
            control_interval_s=self.spec.control_interval_s,
            warmup_s=self.warmup_s,
            timeline=tuple(self.timeline),
            replica_seconds=replica_seconds,
            peak_replicas=max(count for _, count in self.timeline),
            scale_up_events=self.scale_up_events,
            scale_down_events=self.scale_down_events,
            crashes=self.crash_events,
            restarts=self.restart_events,
        )
        return replace(report, num_replicas=len(report.per_replica), autoscale=autoscale)


# ----------------------------------------------------------------------
# Compact text specs (CLI)
# ----------------------------------------------------------------------
def _build_schedule(body: str) -> "ScheduledPolicy":
    values = parse_kv(body, "schedule")
    if not values:
        raise ConfigurationError(
            "schedule spec needs time=replicas pairs, e.g. schedule:0=1,0.5=4"
        )
    return ScheduledPolicy([
        (read_number(time_s, f"schedule time {time_s!r}"),
         read_number(count, f"schedule parameter {time_s!r}", whole=True))
        for time_s, count in values.items()
    ])


def _numeric(kind, defaults, build):
    """Builder of a policy from numeric parameters, passed in ``defaults`` order."""
    return lambda body: build(*parse_kv_numbers(body, defaults, kind).values())


_QUEUE = _numeric(
    "queue", {"high": 8.0, "low": 1.0, "step": 1, "cooldown": 0.0}, QueueDepthPolicy
)
_UTIL = _numeric(
    "util", {"target": 0.6, "deadband": 0.1, "cooldown": 0.0}, TargetUtilizationPolicy
)
_EWMA = _numeric(
    "ewma",
    {"alpha": 0.3, "headroom": 1.2, "rate": 0.0},
    lambda alpha, headroom, rate: EWMAPolicy(alpha, headroom, rate if rate > 0 else None),
)

#: Spec kinds, with their aliases as extra keys -> ``build(body)``.
_POLICY_SPECS = {
    "queue": _QUEUE,
    "queue-depth": _QUEUE,
    "util": _UTIL,
    "utilization": _UTIL,
    "target-utilization": _UTIL,
    "ewma": _EWMA,
    "predictive": _EWMA,
    "schedule": _build_schedule,
}


def parse_autoscaler_spec(spec: str) -> AutoscalerPolicy:
    """Build an :class:`AutoscalerPolicy` from a compact text spec.

    Supported forms::

        queue[:high=8,low=1,step=1,cooldown=0]
        util[:target=0.6,deadband=0.1,cooldown=0]
        ewma[:alpha=0.3,headroom=1.2,rate=<qps>]
        schedule:0=1,0.5=4,1.0=2        (time_s=replicas pairs)
    """
    build, body = split_spec(spec, _POLICY_SPECS, "autoscaler kind")
    return build(body)
