"""Workload catalog and spec parsing for the CLI and experiment tooling.

Arrival processes, trace models, update streams and named drills are
addressable by compact ``kind[:body]`` specs (the one grammar of
:mod:`repro.utils.specs`), so ``python -m repro serve --workload
bursty:on=40000,off=2000`` builds the same objects Python callers compose
by hand.  Each catalog entry carries an example spec; ``list-workloads``
prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.utils.specs import parse_kv, parse_kv_numbers, pop_number, split_spec
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


def _rate(kind: str, process: Callable[[float], ArrivalProcess]):
    """Builder of a one-rate process: ``kind:30000`` or ``kind:rate=30000``."""
    return lambda body: process(
        parse_kv_numbers(body, {"rate": None}, kind, positional="rate")["rate"]
    )


def _build_bursty(body: str) -> ArrivalProcess:
    defaults = {"on": 40_000.0, "off": 0.0, "mean_on": 0.05, "mean_off": 0.1}
    return OnOffArrivals(*parse_kv_numbers(body, defaults, "bursty").values())


def _build_diurnal(body: str) -> ArrivalProcess:
    defaults = {"trough": 5_000.0, "peak": 30_000.0, "period": 1.0}
    return DiurnalArrivals(*parse_kv_numbers(body, defaults, "diurnal").values())


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
        build=_rate("poisson", PoissonArrivals),
    ),
    "constant": CatalogEntry(
        kind="constant",
        summary="evenly spaced closed-loop arrivals (zero burstiness)",
        example="constant:10000",
        build=_rate("constant", ConstantRateArrivals),
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
    alpha = parse_kv_numbers(body, {"alpha": 1.05}, "zipf", positional="alpha")["alpha"]
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


def parse_arrival_spec(spec: str) -> ArrivalProcess:
    """Build an :class:`ArrivalProcess` from a compact text spec."""
    entry, body = split_spec(spec, ARRIVAL_CATALOG, "arrival process")
    return entry.build(body)  # type: ignore[return-value]


def parse_trace_spec(spec: str) -> TraceModel:
    """Build a :class:`TraceModel` from a compact text spec."""
    entry, body = split_spec(spec, TRACE_CATALOG, "trace model")
    return entry.build(body)  # type: ignore[return-value]


def parse_workload_spec(spec: str, trace_spec: str = "uniform") -> Workload:
    """Build a :class:`Workload` from arrival + trace specs."""
    return Workload(
        arrivals=parse_arrival_spec(spec),
        trace=parse_trace_spec(trace_spec),
    )


@dataclass(frozen=True)
class Scenario:
    """A named drill: a fault or update spec plus the traffic it assumes.

    Scenarios store *spec strings*, not built objects: the fault and update
    grammars are parsed lazily (:func:`resolve_fault_spec`,
    :func:`resolve_update_spec`), so the workload catalog stays
    import-light and the scenario text doubles as the exact ``--faults`` or
    ``--updates`` spec a user could have typed by hand.
    """

    name: str
    summary: str
    spec: str
    arrival_spec: str
    trace_spec: str = "uniform"

    def workload(self) -> Workload:
        """Build the scenario's assumed traffic."""
        return parse_workload_spec(self.arrival_spec, self.trace_spec)


#: Chaos scenarios: each ``spec`` is a ``--faults`` spec.
SCENARIO_CATALOG: Dict[str, Scenario] = {
    "region-failover": Scenario(
        name="region-failover",
        summary=(
            "two replicas die at once (a rack/region partition) and restart "
            "after a cold outage window; survivors absorb the re-dispatch"
        ),
        spec="crash:at=0.06,restart=0.05;crash:at=0.06,restart=0.05",
        arrival_spec="poisson:20000",
    ),
    "cascading-brownout": Scenario(
        name="cascading-brownout",
        summary=(
            "thermal throttling marches across the fleet as overlapping "
            "brownouts, then the hottest replica crashes outright"
        ),
        spec=(
            "brownout:at=0.03,for=0.06,replica=0,slow=3;"
            "brownout:at=0.06,for=0.06,replica=1,slow=3;"
            "crash:at=0.1,restart=0.04"
        ),
        arrival_spec="bursty:on=30000,off=5000,mean_on=0.05,mean_off=0.05",
    ),
}


#: Update modes, with their aliases as extra keys.
_UPDATE_MODES = {
    **{mode: mode for mode in UPDATE_MODES},
    "writethrough": "write-through",
    "write_through": "write-through",
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
    mode, body = split_spec(spec, _UPDATE_MODES, "update mode", optional=True)
    if mode is None:
        return None
    values = parse_kv(body, "update", known=("rate", "rows", "trace"), positional="rate")
    rate = pop_number(values, "rate", "update", 1000.0)
    rows = pop_number(values, "rows", "update", 1, whole=True)
    trace = parse_trace_spec(values["trace"]) if "trace" in values else None
    if rate < 0:
        raise ConfigurationError(f"update rate must be >= 0, got {rate:g}")
    if rate == 0:
        return None
    return UpdateProcess(
        arrivals=rate, rows_per_update=rows, mode=mode, trace=trace
    )


#: Embedding-push scenarios: each ``spec`` is an ``--updates`` spec.
UPDATE_SCENARIO_CATALOG: Dict[str, Scenario] = {
    "model-push-storm": Scenario(
        name="model-push-storm",
        summary=(
            "a full model push streams retrained rows into serving at high "
            "rate; invalidations strip the hot set while zipf reads hammer it"
        ),
        spec="invalidate:rate=4000,rows=32",
        arrival_spec="poisson:30000",
        trace_spec="zipf:1.05",
    ),
}


def find_scenario(catalog: Dict[str, Scenario], spec) -> Optional[Scenario]:
    """The scenario of ``catalog`` that ``spec`` names, or ``None``."""
    return None if spec is None else catalog.get(str(spec).strip().lower())


def resolve_update_spec(spec) -> "UpdateProcess | None":
    """Resolve ``--updates`` text: a scenario name or a raw update spec."""
    scenario = find_scenario(UPDATE_SCENARIO_CATALOG, spec)
    return parse_update_spec(spec if scenario is None else scenario.spec)


def resolve_fault_spec(spec: str):
    """Resolve ``--faults`` text: a scenario name or a raw fault spec.

    Returns the parsed ``FaultSchedule`` (or ``None`` for ``off``/``none``).
    """
    if spec is None:
        return None
    from repro.chaos.faults import parse_fault_schedule

    scenario = find_scenario(SCENARIO_CATALOG, spec)
    return parse_fault_schedule(spec if scenario is None else scenario.spec)
