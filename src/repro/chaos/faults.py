"""Declarative, seed-deterministic fault schedules for the serving fleet.

A :class:`FaultSchedule` is a composable list of fault events — timed
:class:`FaultSpec` instances and rate-driven :class:`PoissonFaults`
generators — that a :class:`~repro.chaos.injector.FaultInjector` turns
into ``chaos:`` control events on the shared
:class:`~repro.sim.engine.Simulator`.  Everything is deterministic: timed
faults carry explicit times, Poisson generators carry their own seed, and
:meth:`FaultSchedule.materialize` always produces the same concrete event
list, so equal seeds yield byte-identical incident reports.

Fault kinds (mirroring the failure modes of a production recsys fleet):

* :class:`ReplicaCrash` — a replica dies instantly; its in-flight requests
  are re-dispatched through the live dispatcher or shed, and an optional
  restart recommissions the slot after a delay, paying a re-warm priced
  from :attr:`~repro.backends.base.BackendCapabilities.provision_warmup_s`.
* :class:`ShardLoss` — an embedding shard of a sharded
  :class:`~repro.serving.fleet.Fleet` becomes unavailable;
  failover either *promotes* a surviving buddy shard (correct, but its
  gathers and transfers concentrate there) or *re-hashes* lookups across
  survivors (cheap, but every re-hashed lookup reads the wrong shard's
  rows and is counted as a correctness loss).  Restoring a shard brings
  its hot-row cache back cold.
* :class:`LinkDegradation` — the cross-shard ``ChipletLink``/PCIe fabric
  degrades for a window (bandwidth divided, latency multiplied).
* :class:`Brownout` — one replica's device slows down for a window
  (thermal throttling, noisy neighbor): executed-segment latency is
  inflated by a factor while energy stays as priced.

The empty schedule is the identity: serving paths check
:attr:`FaultSchedule.empty` before creating any chaos state, so a run with
an empty (or absent) schedule is bit-identical to today's fault-free path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.specs import parse_kv, pop_number, reject_unknown

#: In-flight handling choices of a crashed replica.
_INFLIGHT_MODES = ("redispatch", "shed")
#: Failover choices of a lost shard.
_FAILOVER_MODES = ("promote", "rehash")


@dataclass(frozen=True)
class FaultSpec:
    """Base class: one timed fault event at ``at_s`` simulated seconds."""

    at_s: float

    #: Spec-kind tag used by the injector and the text parser.
    kind = "fault"

    def __post_init__(self):
        if self.at_s < 0:
            raise ConfigurationError(
                f"fault time must be non-negative, got {self.at_s}"
            )

    def describe(self) -> str:
        """Compact text form (round-trips through the spec parser)."""
        parts = [f"at={self.at_s:g}"]
        for spec_field in fields(self):
            if spec_field.name == "at_s":
                continue
            value = getattr(self, spec_field.name)
            if value is None:
                continue
            parts.append(f"{_FIELD_ALIASES.get(spec_field.name, spec_field.name)}={value:g}"
                         if isinstance(value, (int, float)) and not isinstance(value, bool)
                         else f"{_FIELD_ALIASES.get(spec_field.name, spec_field.name)}={value}")
        return f"{self.kind}:{','.join(parts)}"


#: describe()/parser field spellings (keeps CLI specs short).
_FIELD_ALIASES = {
    "restart_after_s": "restart",
    "warmup_s": "warmup",
    "on_inflight": "inflight",
    "restore_after_s": "restore",
    "duration_s": "for",
    "bandwidth_factor": "bw",
    "latency_factor": "lat",
}


@dataclass(frozen=True)
class ReplicaCrash(FaultSpec):
    """Kill one replica; optionally restart it after a delay.

    Attributes:
        replica: Pool index to crash.  ``None`` crashes the *highest-index
            currently active* replica (deterministic; mirrors the
            autoscaler's scale-down order), which is what rate-driven
            schedules use.
        restart_after_s: Delay before the slot is recommissioned; ``None``
            leaves it down for the rest of the run.
        warmup_s: Re-warm paid when the restart activates.  ``None`` takes
            the larger of the fleet's configured ``warmup_s`` and the
            backend's ``provision_warmup_s`` capability hint.
        on_inflight: ``"redispatch"`` re-routes the crashed replica's
            in-flight requests through the live dispatcher;
            ``"shed"`` drops them (counted, conservation becomes
            ``arrivals == completed + shed``).
    """

    replica: Optional[int] = None
    restart_after_s: Optional[float] = None
    warmup_s: Optional[float] = None
    on_inflight: str = "redispatch"

    kind = "crash"

    def __post_init__(self):
        super().__post_init__()
        if self.replica is not None and self.replica < 0:
            raise ConfigurationError(
                f"crash replica index must be non-negative, got {self.replica}"
            )
        if self.restart_after_s is not None and self.restart_after_s < 0:
            raise ConfigurationError(
                f"restart_after_s must be non-negative, got {self.restart_after_s}"
            )
        if self.warmup_s is not None and self.warmup_s < 0:
            raise ConfigurationError(
                f"warmup_s must be non-negative, got {self.warmup_s}"
            )
        if self.on_inflight not in _INFLIGHT_MODES:
            raise ConfigurationError(
                f"on_inflight must be one of {_INFLIGHT_MODES}, got "
                f"{self.on_inflight!r}"
            )


@dataclass(frozen=True)
class ShardLoss(FaultSpec):
    """Lose one embedding shard of a sharded group; optionally restore it.

    Attributes:
        shard: Shard index to lose.
        restore_after_s: Delay before the shard returns (with a *cold*
            hot-row cache); ``None`` keeps it lost for the rest of the run.
        failover: ``"promote"`` serves the lost shard's lookups from the
            next surviving shard (its replica shard — correct but
            concentrating); ``"rehash"`` spreads them over all survivors
            by row hash, each re-hashed lookup counted as a correctness
            loss (``degraded_lookups``).
    """

    shard: int = 0
    restore_after_s: Optional[float] = None
    failover: str = "promote"

    kind = "shard-loss"

    def __post_init__(self):
        super().__post_init__()
        if self.shard < 0:
            raise ConfigurationError(
                f"shard index must be non-negative, got {self.shard}"
            )
        if self.restore_after_s is not None and self.restore_after_s < 0:
            raise ConfigurationError(
                f"restore_after_s must be non-negative, got {self.restore_after_s}"
            )
        if self.failover not in _FAILOVER_MODES:
            raise ConfigurationError(
                f"failover must be one of {_FAILOVER_MODES}, got {self.failover!r}"
            )


@dataclass(frozen=True)
class LinkDegradation(FaultSpec):
    """Degrade the cross-shard link for a window.

    Cross-shard partial-sum transfers are slowed by
    ``latency_factor / bandwidth_factor`` while the window is open — a
    halved-bandwidth, doubled-latency fabric makes every transfer 4x
    slower.  Only meaningful on sharded groups (the only consumer of the
    :class:`~repro.core.link.ChipletLink` in the serving stack).
    """

    duration_s: float = 0.0
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0

    kind = "link"

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"link degradation duration_s must be positive, got {self.duration_s}"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigurationError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.latency_factor < 1.0:
            raise ConfigurationError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )
        if self.bandwidth_factor == 1.0 and self.latency_factor == 1.0:
            raise ConfigurationError(
                "a link degradation must degrade something: set "
                "bandwidth_factor < 1 and/or latency_factor > 1"
            )

    @property
    def slowdown(self) -> float:
        """Multiplier applied to cross-shard transfer time."""
        return self.latency_factor / self.bandwidth_factor


@dataclass(frozen=True)
class Brownout(FaultSpec):
    """Inflate one replica's execution latency for a window.

    Attributes:
        duration_s: Window length.
        replica: Pool index to brown out; ``None`` picks the highest-index
            currently active replica at fault time (sharded groups have a
            single logical replica, so ``None``/0 are the only choices
            there).
        latency_factor: Executed-segment duration multiplier (> 1).
    """

    duration_s: float = 0.0
    replica: Optional[int] = None
    latency_factor: float = 2.0

    kind = "brownout"

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"brownout duration_s must be positive, got {self.duration_s}"
            )
        if self.replica is not None and self.replica < 0:
            raise ConfigurationError(
                f"brownout replica index must be non-negative, got {self.replica}"
            )
        if self.latency_factor <= 1.0:
            raise ConfigurationError(
                f"brownout latency_factor must exceed 1, got {self.latency_factor}"
            )


@dataclass(frozen=True)
class PoissonFaults:
    """Rate-driven faults: a seeded Poisson process stamping a template.

    ``materialize()`` draws exponential gaps from a generator seeded with
    ``seed`` (independent of every workload seed) and emits one copy of
    ``template`` per arrival inside ``[start_s, end_s)``.  The template's
    own ``at_s`` is ignored.  Determinism: the same ``(template, rate_hz,
    start_s, end_s, seed)`` always materializes the same event times.
    """

    template: FaultSpec
    rate_hz: float
    end_s: float
    start_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.template, FaultSpec):
            raise ConfigurationError(
                f"template must be a FaultSpec, got {self.template!r}"
            )
        if self.rate_hz <= 0:
            raise ConfigurationError(
                f"rate_hz must be positive, got {self.rate_hz}"
            )
        if self.start_s < 0:
            raise ConfigurationError(
                f"start_s must be non-negative, got {self.start_s}"
            )
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"end_s ({self.end_s}) must exceed start_s ({self.start_s})"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    def materialize(self) -> Tuple[FaultSpec, ...]:
        rng = np.random.default_rng(self.seed)
        events: List[FaultSpec] = []
        clock = self.start_s
        scale = 1.0 / self.rate_hz
        while True:
            clock += float(rng.exponential(scale))
            if clock >= self.end_s:
                break
            events.append(replace(self.template, at_s=clock))
        return tuple(events)

    def describe(self) -> str:
        template = self.template.describe()
        return (
            f"poisson(rate={self.rate_hz:g},start={self.start_s:g},"
            f"end={self.end_s:g},seed={self.seed})[{template}]"
        )


class FaultSchedule:
    """An ordered, reusable collection of fault events.

    Args:
        faults: :class:`FaultSpec` and/or :class:`PoissonFaults` entries.
        sla_s: Latency budget the incident report measures attainment
            against.
        window_s: Bucket width for before/during/after attainment and the
            time-to-recover scan; ``None`` derives it per run (the longest
            incident duration, floored at 5 ms).

    The schedule itself is immutable state + configuration; serving paths
    materialize it fresh for every stream, so one schedule can drive many
    grid points deterministically.
    """

    def __init__(
        self,
        faults: Sequence[Union[FaultSpec, PoissonFaults]] = (),
        sla_s: float = 10e-3,
        window_s: Optional[float] = None,
    ):
        entries: List[Union[FaultSpec, PoissonFaults]] = []
        for entry in faults:
            if not isinstance(entry, (FaultSpec, PoissonFaults)):
                raise ConfigurationError(
                    f"schedule entries must be FaultSpec or PoissonFaults, "
                    f"got {entry!r}"
                )
            entries.append(entry)
        if sla_s <= 0:
            raise ConfigurationError(f"sla_s must be positive, got {sla_s}")
        if window_s is not None and window_s <= 0:
            raise ConfigurationError(
                f"window_s must be positive, got {window_s}"
            )
        self.faults: Tuple[Union[FaultSpec, PoissonFaults], ...] = tuple(entries)
        self.sla_s = sla_s
        self.window_s = window_s

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing (the identity schedule)."""
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def materialize(self) -> Tuple[FaultSpec, ...]:
        """Concrete timed events, sorted by time (stable on ties)."""
        events: List[FaultSpec] = []
        for entry in self.faults:
            if isinstance(entry, PoissonFaults):
                events.extend(entry.materialize())
            else:
                events.append(entry)
        events.sort(key=lambda event: event.at_s)
        return tuple(events)

    def describe(self) -> str:
        if self.empty:
            return "off"
        return ";".join(entry.describe() for entry in self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.describe()!r}, sla_s={self.sla_s})"


# ----------------------------------------------------------------------
# Compact text specs (CLI)
# ----------------------------------------------------------------------
def _parse_one_fault(kind: str, values: dict) -> FaultSpec:
    if kind in ("crash", "replica-crash"):
        at_s = pop_number(values, "at", kind)
        if at_s is None:
            raise ConfigurationError("crash spec needs at=<seconds>")
        replica = pop_number(values, "replica", kind)
        restart = pop_number(values, "restart", kind)
        warmup = pop_number(values, "warmup", kind)
        inflight = values.pop("inflight", "redispatch")
        reject_unknown(values, kind, ("at", "replica", "restart", "warmup", "inflight"))
        return ReplicaCrash(
            at_s=at_s,
            replica=int(replica) if replica is not None else None,
            restart_after_s=restart,
            warmup_s=warmup,
            on_inflight=inflight,
        )
    if kind in ("shard-loss", "shard"):
        at_s = pop_number(values, "at", kind)
        if at_s is None:
            raise ConfigurationError("shard-loss spec needs at=<seconds>")
        shard = pop_number(values, "shard", kind)
        restore = pop_number(values, "restore", kind)
        failover = values.pop("failover", "promote")
        reject_unknown(values, kind, ("at", "shard", "restore", "failover"))
        return ShardLoss(
            at_s=at_s,
            shard=int(shard) if shard is not None else 0,
            restore_after_s=restore,
            failover=failover,
        )
    if kind in ("link", "link-degradation"):
        at_s = pop_number(values, "at", kind)
        duration = pop_number(values, "for", kind)
        if at_s is None or duration is None:
            raise ConfigurationError("link spec needs at=<seconds>,for=<seconds>")
        bandwidth = pop_number(values, "bw", kind)
        latency = pop_number(values, "lat", kind)
        reject_unknown(values, kind, ("at", "for", "bw", "lat"))
        return LinkDegradation(
            at_s=at_s,
            duration_s=duration,
            bandwidth_factor=bandwidth if bandwidth is not None else 1.0,
            latency_factor=latency if latency is not None else 1.0,
        )
    if kind == "brownout":
        at_s = pop_number(values, "at", kind)
        duration = pop_number(values, "for", kind)
        if at_s is None or duration is None:
            raise ConfigurationError("brownout spec needs at=<seconds>,for=<seconds>")
        replica = pop_number(values, "replica", kind)
        slow = pop_number(values, "slow", kind)
        if slow is None:
            # ``lat=`` is the describe() spelling (shared latency_factor
            # alias); accept it so specs round-trip.
            slow = pop_number(values, "lat", kind)
        reject_unknown(values, kind, ("at", "for", "replica", "slow"))
        return Brownout(
            at_s=at_s,
            duration_s=duration,
            replica=int(replica) if replica is not None else None,
            latency_factor=slow if slow is not None else 2.0,
        )
    raise ConfigurationError(
        f"unknown fault kind {kind!r}; known kinds: crash, shard-loss, link, "
        "brownout, poisson, report"
    )


def parse_fault_schedule(spec: Optional[str]) -> Optional[FaultSchedule]:
    """Build a :class:`FaultSchedule` from a compact ``;``-separated spec.

    Supported segments::

        crash:at=0.05,replica=1,restart=0.02,warmup=0.01,inflight=redispatch
        shard-loss:at=0.05,shard=0,restore=0.03,failover=rehash
        link:at=0.05,for=0.02,bw=0.5,lat=2
        brownout:at=0.05,for=0.02,replica=0,slow=3
        poisson:kind=crash,rate=20,until=0.5[,start=0,seed=0,restart=...]
        report:sla=0.01,window=0.005       (incident-report knobs)

    ``None``, ``""``, ``"off"`` and ``"none"`` mean no schedule.
    """
    if spec is None:
        return None
    text = str(spec).strip()
    if not text or text.lower() in ("off", "none"):
        return None
    faults: List[Union[FaultSpec, PoissonFaults]] = []
    sla_s = 10e-3
    window_s: Optional[float] = None
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        kind, _, body = segment.partition(":")
        kind = kind.strip().lower()
        values = parse_kv(body, kind)
        if kind == "report":
            sla = pop_number(values, "sla", kind)
            window = pop_number(values, "window", kind)
            reject_unknown(values, kind, ("sla", "window"))
            if sla is not None:
                sla_s = sla
            if window is not None:
                window_s = window
            continue
        if kind == "poisson":
            inner_kind = values.pop("kind", None)
            if inner_kind is None:
                raise ConfigurationError(
                    "poisson spec needs kind=<crash|shard-loss|link|brownout>"
                )
            rate = pop_number(values, "rate", kind)
            until = pop_number(values, "until", kind)
            if rate is None or until is None:
                raise ConfigurationError(
                    "poisson spec needs rate=<hz> and until=<seconds>"
                )
            start = pop_number(values, "start", kind) or 0.0
            seed = pop_number(values, "seed", kind)
            # Remaining keys parameterize the template (its time is stamped
            # per materialized event).
            values["at"] = "0"
            template = _parse_one_fault(inner_kind.strip().lower(), values)
            faults.append(
                PoissonFaults(
                    template=template,
                    rate_hz=rate,
                    end_s=until,
                    start_s=start,
                    seed=int(seed) if seed is not None else 0,
                )
            )
            continue
        faults.append(_parse_one_fault(kind, values))
    if not faults:
        return None
    return FaultSchedule(faults, sla_s=sla_s, window_s=window_s)
