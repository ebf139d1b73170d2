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

from dataclasses import MISSING, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.specs import OFF, lookup, parse_kv, read_number, reject_unknown, split_spec

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
        return f"{self.kind}:{','.join(_items(self))}"


#: Spec key of each field of the spec dataclasses below, read by both
#: describe() and the parser (short keys keep CLI specs short).  A class's
#: ``spec_keys`` overrides an entry.
_FIELD_KEYS = {
    "at_s": "at",
    "restart_after_s": "restart",
    "warmup_s": "warmup",
    "on_inflight": "inflight",
    "restore_after_s": "restore",
    "duration_s": "for",
    "bandwidth_factor": "bw",
    "latency_factor": "lat",
    "template": "kind",
    "rate_hz": "rate",
    "end_s": "until",
    "start_s": "start",
}


def _keys(cls) -> Dict[str, str]:
    """Field name -> spec key of a spec dataclass."""
    keys = {**_FIELD_KEYS, **getattr(cls, "spec_keys", {})}
    return {name: keys.get(name, name) for name in (spec_field.name for spec_field in fields(cls))}


def _items(spec, skip: Sequence[str] = ()) -> List[str]:
    """``key=value`` items of a spec's set fields (floats formatted ``:g``)."""
    keys = _keys(type(spec))
    items = []
    for spec_field in fields(spec):
        value = getattr(spec, spec_field.name)
        if value is None or spec_field.name in skip:
            continue
        text = f"{value:g}" if isinstance(value, float) else str(value)
        items.append(f"{keys[spec_field.name]}={text}")
    return items


def _spec_kwargs(cls, values: Dict[str, str], skip: Sequence[str] = ()) -> Dict[str, object]:
    """Read a spec body's ``values`` into ``cls``'s fields through its keys.

    ``str`` fields take the raw text, ``int`` fields the whole-number rule
    and the rest numbers; a field without a default is required.  The keys
    of ``skip`` fields are rejected like unknown ones.
    """
    keys = {name: key for name, key in _keys(cls).items() if name not in skip}
    reject_unknown(values, cls.kind, tuple(keys.values()))
    kwargs: Dict[str, object] = {}
    for spec_field in fields(cls):
        if spec_field.name in skip:
            continue
        key, type_name = keys[spec_field.name], spec_field.type
        if key in values:
            raw = values[key]
            kwargs[spec_field.name] = raw if type_name == "str" else read_number(
                raw, f"{cls.kind} parameter {key!r}", whole="int" in type_name
            )
        elif spec_field.default is MISSING:
            raise ConfigurationError(f"{cls.kind} spec needs {key}=<value>")
    return kwargs


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

    duration_s: float
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

    duration_s: float
    replica: Optional[int] = None
    latency_factor: float = 2.0

    kind = "brownout"
    spec_keys = {"latency_factor": "slow"}

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

    kind = "poisson"

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
        """``poisson:kind=...`` text (round-trips through the spec parser)."""
        items = [
            f"kind={self.template.kind}",
            *_items(self, skip=("template",)),
            *_items(self.template, skip=("at_s",)),
        ]
        return f"{self.kind}:{','.join(items)}"


class FaultSchedule:
    """An ordered, reusable collection of fault events.

    Args:
        faults: :class:`FaultSpec` and/or :class:`PoissonFaults` entries.

    The schedule holds only faults: what an incident cost is measured
    against the run's latency budget where it is rendered
    (:func:`~repro.chaos.report.measure_incidents`).  Serving paths
    materialize the schedule fresh for every stream, so one schedule can
    drive many grid points deterministically.
    """

    def __init__(self, faults: Sequence[Union[FaultSpec, PoissonFaults]] = ()):
        entries: List[Union[FaultSpec, PoissonFaults]] = []
        for entry in faults:
            if not isinstance(entry, (FaultSpec, PoissonFaults)):
                raise ConfigurationError(
                    f"schedule entries must be FaultSpec or PoissonFaults, "
                    f"got {entry!r}"
                )
            entries.append(entry)
        self.faults: Tuple[Union[FaultSpec, PoissonFaults], ...] = tuple(entries)

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
        return f"FaultSchedule({self.describe()!r})"


# ----------------------------------------------------------------------
# Compact text specs (CLI)
# ----------------------------------------------------------------------
#: Timed fault kinds, with their aliases as extra keys.
_FAULT_KINDS = {
    "crash": ReplicaCrash,
    "replica-crash": ReplicaCrash,
    "shard-loss": ShardLoss,
    "shard": ShardLoss,
    "link": LinkDegradation,
    "link-degradation": LinkDegradation,
    "brownout": Brownout,
}
#: Every segment kind of a ``--faults`` spec.
_SEGMENTS = {**_FAULT_KINDS, "poisson": PoissonFaults}


def _parse_poisson(values: Dict[str, str]) -> PoissonFaults:
    own = {key: values.pop(key) for key in _keys(PoissonFaults).values() if key in values}
    if "kind" not in own:
        raise ConfigurationError("poisson spec needs kind=<value>")
    template_cls = lookup(_FAULT_KINDS, own.pop("kind").lower(), "fault kind")
    # The template's time is stamped per materialized event.
    template = template_cls(at_s=0.0, **_spec_kwargs(template_cls, values, skip=("at_s",)))
    return PoissonFaults(
        template=template, **_spec_kwargs(PoissonFaults, own, skip=("template",))
    )


def parse_fault_schedule(spec: Optional[str]) -> Optional[FaultSchedule]:
    """Build a :class:`FaultSchedule` from a compact ``;``-separated spec.

    Supported segments::

        crash:at=0.05,replica=1,restart=0.02,warmup=0.01,inflight=redispatch
        shard-loss:at=0.05,shard=0,restore=0.03,failover=rehash
        link:at=0.05,for=0.02,bw=0.5,lat=2
        brownout:at=0.05,for=0.02,replica=0,slow=3
        poisson:kind=crash,rate=20,until=0.5[,start=0,seed=0,restart=...]

    Each kind's keys are its dataclass fields through :data:`_FIELD_KEYS`,
    the spellings :meth:`FaultSchedule.describe` prints.  ``None``, ``""``,
    ``"off"`` and ``"none"`` mean no schedule.
    """
    text = "" if spec is None else str(spec).strip()
    if text.lower() in OFF:
        return None
    faults: List[Union[FaultSpec, PoissonFaults]] = []
    for segment in filter(str.strip, text.split(";")):
        cls, body = split_spec(segment, _SEGMENTS, "fault kind")
        values = parse_kv(body, cls.kind)
        if cls is PoissonFaults:
            faults.append(_parse_poisson(values))
        else:
            faults.append(cls(**_spec_kwargs(cls, values)))
    return FaultSchedule(faults) if faults else None
