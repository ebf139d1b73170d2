"""The fault injector: turns a schedule into ``chaos:`` simulator events.

One :class:`FaultInjector` is built per serving stream, armed before the
stream starts, and finalized after it drains.  It drives exactly one host:

* **Fleet mode** (``controller=``) — an autoscale controller
  (:class:`repro.serving.autoscale._AutoscaleController`).  Handles
  :class:`~repro.chaos.faults.ReplicaCrash` (via the controller's
  ``crash_replica``/``restore_replica`` hooks, composing with drain and
  warm-up lifecycle states) and :class:`~repro.chaos.faults.Brownout`.
* **Sharded mode** (``sharded=``) — a
  :class:`~repro.serving.sharded.ShardedReplicaServer`.  Handles
  :class:`~repro.chaos.faults.ShardLoss` (promote/re-hash failover, cold
  hot-row cache on restore),
  :class:`~repro.chaos.faults.LinkDegradation`, and brownouts on the
  group's single logical replica.

The injector also owns the run's shed accounting: requests dropped when a
crashed replica's in-flight work is shed, and arrivals during a total
outage (every replica down), both of which
:func:`~repro.serving.replica.drive_stream` checks via the relaxed
conservation identity ``arrivals == completed + shed``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.faults import (
    Brownout,
    FaultSchedule,
    FaultSpec,
    LinkDegradation,
    ReplicaCrash,
    ShardLoss,
)
from repro.chaos.report import Incident, IncidentReport, build_incident_report
from repro.errors import ConfigurationError
from repro.serving.replica import Controller


class _ShedSink:
    """Stand-in replica for arrivals during a total outage.

    When every replica is down, the controller's router returns this sink
    instead of raising; each submitted request is counted as shed (never
    completed), which the relaxed conservation identity accounts for.
    """

    def __init__(self, injector: "FaultInjector"):
        self._injector = injector

    def submit(self, request) -> None:
        self._injector._note_outage_shed()


class FaultInjector(Controller):
    """Schedules one materialized fault schedule onto a running simulation.

    A fleet controller: the fleet arms it after the host it drives, takes
    its :meth:`shed_count` as the stream's ``lost`` hook, and lets it attach
    the run's :class:`~repro.chaos.report.IncidentReport` in :meth:`finish`.
    """

    def __init__(
        self,
        sim,
        schedule: FaultSchedule,
        controller=None,
        sharded=None,
        cache_config=None,
        model=None,
    ):
        if (controller is None) == (sharded is None):
            raise ConfigurationError(
                "FaultInjector drives exactly one host: pass controller= "
                "(fleet mode) or sharded= (sharded-group mode)"
            )
        self.sim = sim
        self.schedule = schedule
        self.controller = controller
        self.sharded = sharded
        self._cache_config = cache_config
        self._model = model
        self.shed = 0
        #: Raw incident records, in injection order.  Each holds the
        #: measured facts; SLA fields are filled in at finalize time.
        self._records: List[Dict[str, Any]] = []
        #: The latest crash that stopped a replica; outage sheds that no
        #: open incident covers are charged to it.
        self._last_crash: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def shed_count(self) -> int:
        """Callable handed to :func:`drive_stream` as its ``lost`` hook."""
        return self.shed

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Validate and schedule every materialized fault event."""
        events = self.schedule.materialize()
        for spec in events:
            self._validate(spec)
        if self.controller is not None:
            self.controller.install_shed_sink(_ShedSink(self))
        for spec in events:
            handler = self._handler_for(spec)
            self.sim.schedule_at(
                spec.at_s,
                lambda s=spec, h=handler: h(s),
                label=f"chaos:{spec.kind}",
            )

    def _validate(self, spec: FaultSpec) -> None:
        if self.controller is not None:
            pool = len(self.controller.replicas)
            if isinstance(spec, (ShardLoss, LinkDegradation)):
                raise ConfigurationError(
                    f"{spec.kind} faults need a sharded group; this fleet "
                    "has no shards (set FleetSpec(shards=...) / --shards)"
                )
            if isinstance(spec, (ReplicaCrash, Brownout)):
                if spec.replica is not None and spec.replica >= pool:
                    raise ConfigurationError(
                        f"{spec.kind} targets replica {spec.replica} but the "
                        f"pool holds {pool} slots"
                    )
            return
        num_shards = self.sharded.plan.num_shards
        if isinstance(spec, ReplicaCrash):
            raise ConfigurationError(
                "replica crashes target fleet replicas; a sharded group is "
                "one logical replica — use shard-loss faults instead"
            )
        if isinstance(spec, ShardLoss):
            if num_shards == 1:
                raise ConfigurationError(
                    "shard-loss needs a multi-shard group: losing the only "
                    "shard leaves nothing to fail over to"
                )
            if spec.shard >= num_shards:
                raise ConfigurationError(
                    f"shard-loss targets shard {spec.shard} but the group "
                    f"has {num_shards} shards"
                )
        if isinstance(spec, LinkDegradation) and num_shards == 1:
            raise ConfigurationError(
                "link degradation needs a multi-shard group (a single shard "
                "ships no cross-shard traffic)"
            )
        if isinstance(spec, Brownout) and spec.replica not in (None, 0):
            raise ConfigurationError(
                f"a sharded group is one logical replica; brownout replica "
                f"must be 0 or omitted, got {spec.replica}"
            )

    def _handler_for(self, spec: FaultSpec):
        if isinstance(spec, ReplicaCrash):
            return self._on_crash
        if isinstance(spec, Brownout):
            return (
                self._on_fleet_brownout
                if self.controller is not None
                else self._on_sharded_brownout
            )
        if isinstance(spec, ShardLoss):
            return self._on_shard_loss
        if isinstance(spec, LinkDegradation):
            return self._on_link_degradation
        raise ConfigurationError(f"unhandled fault spec {spec!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Incident record bookkeeping
    # ------------------------------------------------------------------
    def _energy(self) -> float:
        """Energy billed so far, in joules."""
        if self.controller is not None:
            return sum(replica.energy_joules for replica in self.controller.replicas)
        return self.sharded.energy_joules

    def _replica_seconds(self, at_s: float) -> float:
        """Replica-seconds billed up to ``at_s``, read after the run."""
        if self.controller is not None:
            return self.controller.billed_seconds(at_s)
        return self.sharded.plan.num_shards * at_s

    def _open(self, kind: str, target: str, note: str = "") -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": kind,
            "target": target,
            "start_s": self.sim.now,
            "end_s": None,
            "cleared": False,
            "shed": 0,
            "redispatched": 0,
            "degraded0": self._degraded_lookups(),
            "degraded1": None,
            "energy0": self._energy(),
            "energy1": None,
            "refill_rows": 0,
            "refill_s": 0.0,
            "refill_joules": 0.0,
            "note": note,
        }
        self._records.append(record)
        return record

    def _close(self, record: Dict[str, Any], cleared: bool = True) -> None:
        if record["end_s"] is not None:
            return
        record["end_s"] = self.sim.now
        record["cleared"] = cleared
        record["energy1"] = self._energy()
        record["degraded1"] = self._degraded_lookups()

    def _degraded_lookups(self) -> int:
        if self.sharded is not None:
            return self.sharded.degraded_lookups
        return 0

    def _note_outage_shed(self) -> None:
        self.shed += 1
        for record in reversed(self._records):
            if record["end_s"] is None:
                record["shed"] += 1
                return
        # An outage can outlive every crash record, for example when the
        # autoscaler cancels a restarted slot's warm-up: charge the latest.
        if self._last_crash is not None:
            self._last_crash["shed"] += 1

    # ------------------------------------------------------------------
    # Fleet-mode handlers
    # ------------------------------------------------------------------
    def _pick_replica(self, preferred: Optional[int]) -> Optional[int]:
        if preferred is not None:
            return preferred
        return self.controller.highest_active_index()

    def _on_crash(self, spec: ReplicaCrash) -> None:
        controller = self.controller
        index = self._pick_replica(spec.replica)
        if index is None:
            record = self._open("crash", "replica:-", note="no-op: no active replica")
            self._close(record)
            return
        state, redispatched, shed = controller.crash_replica(index, spec.on_inflight)
        if state is None:
            record = self._open(
                "crash", f"replica:{index}", note="no-op: replica already stopped"
            )
            self._close(record)
            return
        note = f"was {state}" if state != "active" else ""
        record = self._open("crash", f"replica:{index}", note=note)
        self._last_crash = record
        record["shed"] += shed
        record["redispatched"] += redispatched
        self.shed += shed
        if spec.restart_after_s is None:
            return
        self.sim.schedule_at(
            self.sim.now + spec.restart_after_s,
            lambda: self._on_restart(spec, index, record),
            label="chaos:restart",
        )

    def _restart_warmup_s(self, spec: ReplicaCrash) -> float:
        if spec.warmup_s is not None:
            return spec.warmup_s
        capabilities = getattr(self.controller.pool.runner, "capabilities", None)
        hint = getattr(capabilities, "provision_warmup_s", 0.0)
        return max(self.controller.warmup_s, hint)

    def _on_restart(
        self, spec: ReplicaCrash, index: int, record: Dict[str, Any]
    ) -> None:
        warmup_s = self._restart_warmup_s(spec)
        if not self.controller.restore_replica(index, warmup_s):
            # The autoscaler recommissioned the slot before the restart
            # fired; service was already restored through that path.
            record["note"] = (record["note"] + "; " if record["note"] else "") + (
                "slot reclaimed by autoscaler before restart"
            )
            self._close(record)
            return
        self.sim.schedule_at(
            self.sim.now + warmup_s,
            lambda: self._close(record),
            label="chaos:restored",
        )

    def _on_fleet_brownout(self, spec: Brownout) -> None:
        index = self._pick_replica(spec.replica)
        if index is None:
            record = self._open(
                "brownout", "replica:-", note="no-op: no active replica"
            )
            self._close(record)
            return
        replica = self.controller.replicas[index]
        record = self._open("brownout", f"replica:{index}")
        replica.latency_multiplier = spec.latency_factor
        self.sim.schedule_at(
            self.sim.now + spec.duration_s,
            lambda: self._end_brownout(replica, record),
            label="chaos:brownout-end",
        )

    def _end_brownout(self, replica, record: Dict[str, Any]) -> None:
        replica.latency_multiplier = 1.0
        self._close(record)

    # ------------------------------------------------------------------
    # Sharded-mode handlers
    # ------------------------------------------------------------------
    def _on_shard_loss(self, spec: ShardLoss) -> None:
        server = self.sharded
        if not server.lose_shard(spec.shard, spec.failover):
            record = self._open(
                "shard-loss",
                f"shard:{spec.shard}",
                note="no-op: shard already lost",
            )
            self._close(record)
            return
        record = self._open(
            "shard-loss", f"shard:{spec.shard}", note=f"failover={spec.failover}"
        )
        if spec.restore_after_s is None:
            return
        self.sim.schedule_at(
            self.sim.now + spec.restore_after_s,
            lambda: self._on_shard_restore(spec.shard, record),
            label="chaos:shard-restore",
        )

    def _on_shard_restore(self, shard: int, record: Dict[str, Any]) -> None:
        fresh_cache = None
        if self._cache_config is not None:
            # The restored shard comes back with a *cold* hot-row cache:
            # same configuration and seed, no resident rows.  Everything
            # the outgoing cache held resident must be re-gathered before
            # the shard is warm again — price that refill traffic through
            # the backend's EMB cost model instead of handing back a
            # silently cold cache.
            fresh_cache = self._cache_config.build(self._model)
            if self.sharded.caches is not None:
                resident = len(self.sharded.caches[shard])
                refill_s, refill_joules = self.sharded.price_refill(resident)
                record["refill_rows"] = resident
                record["refill_s"] = refill_s
                record["refill_joules"] = refill_joules
        self.sharded.restore_shard(shard, fresh_cache)
        self._close(record)

    def _on_link_degradation(self, spec: LinkDegradation) -> None:
        server = self.sharded
        record = self._open(
            "link", "link", note=f"slowdown={spec.slowdown:g}x"
        )
        server.set_link_slowdown(spec.slowdown)
        self.sim.schedule_at(
            self.sim.now + spec.duration_s,
            lambda: self._end_link(record),
            label="chaos:link-end",
        )

    def _end_link(self, record: Dict[str, Any]) -> None:
        self.sharded.set_link_slowdown(1.0)
        self._close(record)

    def _on_sharded_brownout(self, spec: Brownout) -> None:
        server = self.sharded
        record = self._open("brownout", "replica:0")
        server.latency_multiplier = spec.latency_factor
        self.sim.schedule_at(
            self.sim.now + spec.duration_s,
            lambda: self._end_brownout(server, record),
            label="chaos:brownout-end",
        )

    # ------------------------------------------------------------------
    def finish(self, report, horizon_s: float):
        """Attach the incident report to the run's cluster report."""
        return replace(
            report, incidents=self.finalize(report.per_replica, horizon_s=horizon_s)
        )

    def finalize(self, per_replica_reports, horizon_s: float) -> IncidentReport:
        """Close open incidents at the horizon and measure the SLA view."""
        samples: List[Tuple[float, float]] = []
        for report in per_replica_reports:
            samples.extend(report.completion_samples())
        incidents: List[Incident] = []
        for record in self._records:
            if record["end_s"] is None:
                self._close(record, cleared=False)
            degraded0 = record["degraded0"]
            degraded1 = record["degraded1"]
            incidents.append(
                Incident(
                    kind=record["kind"],
                    target=record["target"],
                    start_s=record["start_s"],
                    end_s=record["end_s"],
                    cleared=record["cleared"],
                    shed_requests=record["shed"],
                    redispatched_requests=record["redispatched"],
                    degraded_lookups=(degraded1 or 0) - degraded0,
                    recovery_replica_seconds=self._replica_seconds(record["end_s"])
                    - self._replica_seconds(record["start_s"]),
                    recovery_energy_joules=record["energy1"] - record["energy0"],
                    refill_rows=record["refill_rows"],
                    refill_s=record["refill_s"],
                    refill_energy_joules=record["refill_joules"],
                    note=record["note"],
                )
            )
        return build_incident_report(
            samples,
            incidents,
            schedule=self.schedule.describe(),
            sla_s=self.schedule.sla_s,
            window_s=self.schedule.window_s,
            horizon_s=horizon_s,
        )
