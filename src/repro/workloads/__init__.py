"""Composable, streaming workload subsystem: traces, arrivals, traffic mixes.

The paper's central claim rests on workload shape — sparse embedding gathers
with poor locality dominate CPU inference, and the hybrid device wins across
batch sizes and traffic levels.  This package makes workload shape a
first-class, composable object:

* :class:`ArrivalProcess` — *when* requests arrive (Poisson, bursty on/off,
  diurnal, constant-rate, replay), all lazy iterators with explicit seeds.
* :class:`TraceModel` — *what* they look up (uniform, Zipf, hot/cold working
  set, per-table skew overrides).
* :class:`TrafficMix` — *which* models they target (weighted multi-model
  blends served by one cluster).
* :class:`Workload` — the three composed, with explicit seed-splitting; the
  unit that serving simulators, experiment grids and the CLI consume.
"""

from repro.workloads.arrivals import (
    CHUNK_SIZE,
    ArrivalProcess,
    ConstantRateArrivals,
    DiurnalArrivals,
    InferenceRequest,
    OnOffArrivals,
    PoissonArrivals,
    ReplayArrivals,
    as_arrival_process,
)
from repro.workloads.traces import (
    DLRMBatch,
    PerTableTrace,
    SparseTrace,
    TraceModel,
    UniformTrace,
    WorkingSetTrace,
    ZipfianTrace,
    model_batch,
    table_trace,
)
from repro.workloads.mix import MixComponent, TrafficMix
from repro.workloads.updates import (
    UPDATE_MODES,
    EmbeddingUpdate,
    UpdateProcess,
)
from repro.workloads.workload import (
    TAG_MULTI_MODEL,
    TAG_SKEWED_TRACE,
    Workload,
    poisson_workload,
)
from repro.workloads.catalog import (
    ARRIVAL_CATALOG,
    SCENARIO_CATALOG,
    TRACE_CATALOG,
    UPDATE_SCENARIO_CATALOG,
    CatalogEntry,
    ChaosScenario,
    UpdateScenario,
    parse_arrival_spec,
    parse_trace_spec,
    parse_update_spec,
    parse_workload_spec,
    resolve_fault_spec,
    resolve_update_spec,
)

__all__ = [
    "CHUNK_SIZE",
    "ArrivalProcess",
    "PoissonArrivals",
    "ConstantRateArrivals",
    "OnOffArrivals",
    "DiurnalArrivals",
    "ReplayArrivals",
    "InferenceRequest",
    "as_arrival_process",
    "TraceModel",
    "UniformTrace",
    "ZipfianTrace",
    "WorkingSetTrace",
    "PerTableTrace",
    "SparseTrace",
    "DLRMBatch",
    "model_batch",
    "table_trace",
    "MixComponent",
    "TrafficMix",
    "Workload",
    "poisson_workload",
    "TAG_MULTI_MODEL",
    "TAG_SKEWED_TRACE",
    "EmbeddingUpdate",
    "UpdateProcess",
    "UPDATE_MODES",
    "CatalogEntry",
    "ChaosScenario",
    "UpdateScenario",
    "ARRIVAL_CATALOG",
    "SCENARIO_CATALOG",
    "TRACE_CATALOG",
    "UPDATE_SCENARIO_CATALOG",
    "parse_arrival_spec",
    "parse_trace_spec",
    "parse_update_spec",
    "parse_workload_spec",
    "resolve_fault_spec",
    "resolve_update_spec",
]
