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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arrivals": (
            "CHUNK_SIZE", "ArrivalProcess", "PoissonArrivals", "ConstantRateArrivals",
            "OnOffArrivals", "DiurnalArrivals", "ReplayArrivals", "InferenceRequest",
            "as_arrival_process",
        ),
        ".traces": (
            "TraceModel", "UniformTrace", "ZipfianTrace", "WorkingSetTrace", "PerTableTrace",
            "SparseTrace", "DLRMBatch", "model_batch", "table_trace",
        ),
        ".mix": ("MixComponent", "TrafficMix"),
        ".updates": ("UPDATE_MODES", "EmbeddingUpdate", "UpdateProcess"),
        ".workload": ("Workload", "poisson_workload"),
        ".catalog": (
            "ARRIVAL_CATALOG", "SCENARIO_CATALOG", "TRACE_CATALOG", "UPDATE_SCENARIO_CATALOG",
            "CatalogEntry", "Scenario", "parse_arrival_spec",
            "parse_trace_spec", "parse_update_spec", "parse_workload_spec", "resolve_fault_spec",
            "resolve_update_spec",
        ),
    },
)
