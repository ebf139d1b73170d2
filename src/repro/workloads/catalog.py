"""Workload catalog and spec parsing for the CLI and experiment tooling.

Arrival processes and trace models are addressable by compact text specs so
``python -m repro serve --workload bursty:on=40000,off=2000`` can build the
same objects Python callers compose by hand:

* ``poisson:30000`` — Poisson arrivals at 30 kQPS.
* ``constant:10000`` — evenly spaced arrivals at 10 kQPS.
* ``bursty:on=40000,off=2000,mean_on=0.05,mean_off=0.1`` — MMPP on/off.
* ``diurnal:trough=5000,peak=30000,period=0.5`` — sinusoidal day curve.
* ``replay:0.001,0.002,0.0035`` — explicit timestamps.

Trace specs follow the same shape: ``uniform``, ``zipf:1.05``,
``hotcold:frac=0.05,weight=0.9``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.utils.specs import parse_kv, parse_kv_numbers, pop_number
from repro.workloads.arrivals import (
    ArrivalProcess,
    ConstantRateArrivals,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    ReplayArrivals,
)
from repro.workloads.traces import (
    TraceModel,
    UniformTrace,
    WorkingSetTrace,
    ZipfianTrace,
)
from repro.workloads.updates import UPDATE_MODES, UpdateProcess
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class CatalogEntry:
    """One spec-addressable generator family shown by ``list-workloads``."""

    kind: str
    summary: str
    example: str
    build: Callable[[str], object]


def _require_number(body: str, kind: str, what: str) -> float:
    try:
        return float(body)
    except ValueError:
        raise ConfigurationError(f"{kind} spec needs a {what}, got {body!r}")


def _build_poisson(body: str) -> ArrivalProcess:
    return PoissonArrivals(rate_qps=_require_number(body, "poisson", "rate in QPS"))


def _build_constant(body: str) -> ArrivalProcess:
    return ConstantRateArrivals(rate_qps=_require_number(body, "constant", "rate in QPS"))


def _build_bursty(body: str) -> ArrivalProcess:
    values = parse_kv_numbers(
        body,
        {"on": 40_000.0, "off": 0.0, "mean_on": 0.05, "mean_off": 0.1},
        "bursty",
    )
    return OnOffArrivals(
        on_rate_qps=values["on"],
        off_rate_qps=values["off"],
        mean_on_s=values["mean_on"],
        mean_off_s=values["mean_off"],
    )


def _build_diurnal(body: str) -> ArrivalProcess:
    values = parse_kv_numbers(
        body,
        {"trough": 5_000.0, "peak": 30_000.0, "period": 1.0},
        "diurnal",
    )
    return DiurnalArrivals(
        trough_qps=values["trough"],
        peak_qps=values["peak"],
        period_s=values["period"],
    )


def _build_replay(body: str) -> ArrivalProcess:
    if not body:
        raise ConfigurationError("replay spec needs a comma-separated list of times")
    try:
        times = [float(item) for item in body.split(",") if item.strip()]
    except ValueError:
        raise ConfigurationError(f"replay times must be numbers, got {body!r}")
    return ReplayArrivals(times)


ARRIVAL_CATALOG: Dict[str, CatalogEntry] = {
    "poisson": CatalogEntry(
        kind="poisson",
        summary="memoryless open-loop traffic (exponential gaps)",
        example="poisson:30000",
        build=_build_poisson,
    ),
    "constant": CatalogEntry(
        kind="constant",
        summary="evenly spaced closed-loop arrivals (zero burstiness)",
        example="constant:10000",
        build=_build_constant,
    ),
    "bursty": CatalogEntry(
        kind="bursty",
        summary="MMPP on/off bursts with exponential sojourns",
        example="bursty:on=40000,off=2000,mean_on=0.05,mean_off=0.1",
        build=_build_bursty,
    ),
    "diurnal": CatalogEntry(
        kind="diurnal",
        summary="sinusoidal day-curve rate, sampled by thinning",
        example="diurnal:trough=5000,peak=30000,period=0.5",
        build=_build_diurnal,
    ),
    "replay": CatalogEntry(
        kind="replay",
        summary="replay explicit arrival timestamps",
        example="replay:0.001,0.002,0.0035",
        build=_build_replay,
    ),
}


def _build_uniform_trace(body: str) -> TraceModel:
    if body:
        raise ConfigurationError("uniform trace spec takes no parameters")
    return UniformTrace()


def _build_zipf_trace(body: str) -> TraceModel:
    alpha = _require_number(body, "zipf", "skew alpha") if body else 1.05
    return ZipfianTrace(alpha=alpha)


def _build_hotcold_trace(body: str) -> TraceModel:
    values = parse_kv_numbers(body, {"frac": 0.05, "weight": 0.9}, "hotcold")
    return WorkingSetTrace(hot_fraction=values["frac"], hot_weight=values["weight"])


TRACE_CATALOG: Dict[str, CatalogEntry] = {
    "uniform": CatalogEntry(
        kind="uniform",
        summary="uniform low-locality lookups (the paper's regime)",
        example="uniform",
        build=_build_uniform_trace,
    ),
    "zipf": CatalogEntry(
        kind="zipf",
        summary="Zipf popularity skew over table rows",
        example="zipf:1.05",
        build=_build_zipf_trace,
    ),
    "hotcold": CatalogEntry(
        kind="hotcold",
        summary="hot/cold working set (hot fraction takes most lookups)",
        example="hotcold:frac=0.05,weight=0.9",
        build=_build_hotcold_trace,
    ),
}


def _split_spec(spec: str) -> Tuple[str, str]:
    text = spec.strip()
    kind, _, body = text.partition(":")
    return kind.strip().lower(), body.strip()


def parse_arrival_spec(spec: str) -> ArrivalProcess:
    """Build an :class:`ArrivalProcess` from a compact text spec."""
    kind, body = _split_spec(spec)
    entry = ARRIVAL_CATALOG.get(kind)
    if entry is None:
        raise ConfigurationError(
            f"unknown arrival process {kind!r}; available: "
            f"{', '.join(sorted(ARRIVAL_CATALOG))}"
        )
    return entry.build(body)  # type: ignore[return-value]


def parse_trace_spec(spec: str) -> TraceModel:
    """Build a :class:`TraceModel` from a compact text spec."""
    kind, body = _split_spec(spec)
    entry = TRACE_CATALOG.get(kind)
    if entry is None:
        raise ConfigurationError(
            f"unknown trace model {kind!r}; available: "
            f"{', '.join(sorted(TRACE_CATALOG))}"
        )
    return entry.build(body)  # type: ignore[return-value]


def parse_workload_spec(spec: str, trace_spec: str = "uniform") -> Workload:
    """Build a :class:`Workload` from arrival + trace specs."""
    return Workload(
        arrivals=parse_arrival_spec(spec),
        trace=parse_trace_spec(trace_spec),
    )


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault drill: a fault schedule plus the traffic it assumes.

    Scenarios store *spec strings*, not built objects: the fault grammar
    lives in :mod:`repro.chaos` and is parsed lazily, so the workload
    catalog stays import-light and the scenario text doubles as the exact
    ``--faults`` spec a user could have typed by hand.
    """

    name: str
    summary: str
    fault_spec: str
    arrival_spec: str
    trace_spec: str = "uniform"

    def schedule(self):
        """Parse :attr:`fault_spec` into a ``FaultSchedule``."""
        from repro.chaos.faults import parse_fault_schedule

        return parse_fault_schedule(self.fault_spec)

    def workload(self) -> Workload:
        """Build the scenario's assumed traffic."""
        return parse_workload_spec(self.arrival_spec, self.trace_spec)


SCENARIO_CATALOG: Dict[str, ChaosScenario] = {
    "region-failover": ChaosScenario(
        name="region-failover",
        summary=(
            "two replicas die at once (a rack/region partition) and restart "
            "after a cold outage window; survivors absorb the re-dispatch"
        ),
        fault_spec=(
            "crash:at=0.06,restart=0.05;"
            "crash:at=0.06,restart=0.05;"
            "report:sla=0.005"
        ),
        arrival_spec="poisson:20000",
    ),
    "cascading-brownout": ChaosScenario(
        name="cascading-brownout",
        summary=(
            "thermal throttling marches across the fleet as overlapping "
            "brownouts, then the hottest replica crashes outright"
        ),
        fault_spec=(
            "brownout:at=0.03,for=0.06,replica=0,slow=3;"
            "brownout:at=0.06,for=0.06,replica=1,slow=3;"
            "crash:at=0.1,restart=0.04;"
            "report:sla=0.005"
        ),
        arrival_spec="bursty:on=30000,off=5000,mean_on=0.05,mean_off=0.05",
    ),
}


_MODE_ALIASES = {
    "invalidate": "invalidate",
    "write-through": "write-through",
    "writethrough": "write-through",
    "write_through": "write-through",
    "ignore": "ignore",
}


def parse_update_spec(spec) -> "UpdateProcess | None":
    """Build an :class:`~repro.workloads.updates.UpdateProcess` from text.

    Grammar: ``MODE:rate=R,rows=K[,trace=TRACESPEC]`` where ``MODE`` is
    ``invalidate`` / ``write-through`` / ``ignore``; ``rate`` is pushes/s
    (Poisson) and ``rows`` the rows rewritten per push.  A bare number
    body (``invalidate:4000``) is the rate.  ``None``, ``""``, ``"off"``,
    ``"none"`` and ``rate=0`` all mean no update stream — the read-only
    serving path.  The trace sub-spec may not contain commas beyond its
    own parameters (``trace=zipf:1.05`` works; quote odd shapes in code).
    """
    if spec is None:
        return None
    text = str(spec).strip()
    if not text or text.lower() in ("off", "none"):
        return None
    mode_text, _, body = text.partition(":")
    mode = _MODE_ALIASES.get(mode_text.strip().lower())
    if mode is None:
        raise ConfigurationError(
            f"unknown update mode {mode_text.strip()!r}; use one of "
            f"{', '.join(UPDATE_MODES)} (or 'off')"
        )
    values = parse_kv(body, "update", known=("rate", "rows", "trace"), positional="rate")
    rate = pop_number(values, "rate", "update", 1000.0)
    rows = int(pop_number(values, "rows", "update", 1))
    trace = parse_trace_spec(values["trace"]) if "trace" in values else None
    if rate < 0:
        raise ConfigurationError(f"update rate must be >= 0, got {rate:g}")
    if rate == 0:
        return None
    return UpdateProcess(
        arrivals=rate, rows_per_update=rows, mode=mode, trace=trace
    )


@dataclass(frozen=True)
class UpdateScenario:
    """A named embedding-push drill: an update spec plus assumed traffic."""

    name: str
    summary: str
    update_spec: str
    arrival_spec: str
    trace_spec: str = "uniform"

    def updates(self) -> "UpdateProcess | None":
        """Parse :attr:`update_spec` into an :class:`UpdateProcess`."""
        return parse_update_spec(self.update_spec)

    def workload(self) -> Workload:
        """Build the scenario's assumed traffic."""
        return parse_workload_spec(self.arrival_spec, self.trace_spec)


UPDATE_SCENARIO_CATALOG: Dict[str, UpdateScenario] = {
    "model-push-storm": UpdateScenario(
        name="model-push-storm",
        summary=(
            "a full model push streams retrained rows into serving at high "
            "rate; invalidations strip the hot set while zipf reads hammer it"
        ),
        update_spec="invalidate:rate=4000,rows=32",
        arrival_spec="poisson:30000",
        trace_spec="zipf:1.05",
    ),
}


def resolve_update_spec(spec) -> "UpdateProcess | None":
    """Resolve ``--updates`` text: a scenario name or a raw update spec."""
    if spec is not None and str(spec).strip().lower() in UPDATE_SCENARIO_CATALOG:
        scenario = UPDATE_SCENARIO_CATALOG[str(spec).strip().lower()]
        return scenario.updates()
    return parse_update_spec(spec)


def resolve_fault_spec(spec: str):
    """Resolve ``--faults`` text: a scenario name or a raw fault spec.

    Returns the parsed ``FaultSchedule`` (or ``None`` for ``off``/``none``).
    """
    if spec is not None and spec.strip().lower() in SCENARIO_CATALOG:
        return SCENARIO_CATALOG[spec.strip().lower()].schedule()
    from repro.chaos.faults import parse_fault_schedule

    return parse_fault_schedule(spec)
