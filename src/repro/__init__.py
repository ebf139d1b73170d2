"""Centaur reproduction: a chiplet-based hybrid sparse-dense accelerator model.

This package reproduces, in Python, the system described in *"Centaur: A
Chiplet-based, Hybrid Sparse-Dense Accelerator for Personalized
Recommendations"* (ISCA 2020): a from-scratch DLRM inference library, CPU /
CPU-GPU / Centaur performance models calibrated to the paper's evaluation
platform (Intel HARPv2), an FPGA resource estimator, a Table IV power model and
an analysis harness that regenerates every table and figure of the paper's
evaluation.

Quickstart::

    import numpy as np

    from repro import DLRM, CentaurDevice, UniformTrace, get_backend
    from repro.config import DLRM1, HARPV2_SYSTEM
    from repro.workloads import model_batch

    model = DLRM.from_config(DLRM1, seed=0)
    batch = model_batch(UniformTrace(), np.random.default_rng(1), DLRM1, batch_size=16)
    probabilities = CentaurDevice(model, HARPV2_SYSTEM).predict(batch)

    cpu = get_backend("cpu", HARPV2_SYSTEM).run(DLRM1, 16)
    fpga = get_backend("centaur", HARPV2_SYSTEM).run(DLRM1, 16)
    print(f"speedup: {fpga.speedup_over(cpu):.2f}x")

Backends are addressed by registry name, and experiment grids replace
hand-built runner loops::

    from repro import Experiment, get_backend, available_backends
    from repro.config import HARPV2_SYSTEM, PAPER_MODELS, PAPER_BATCH_SIZES

    result = (
        Experiment(HARPV2_SYSTEM)
        .backends("cpu", "centaur")
        .models(PAPER_MODELS)
        .batch_sizes(PAPER_BATCH_SIZES)
        .run()
    )
    print(result.get("centaur", "DLRM(3)", 64).latency_seconds)
"""

from repro.version import __version__, PAPER_TITLE, PAPER_VENUE, PAPER_AUTHORS
from repro.errors import (
    ReproError,
    ConfigurationError,
    ModelShapeError,
    TraceError,
    SimulationError,
    CapacityError,
    ResourceEstimationError,
)
from repro.results import InferenceResult, LatencyBreakdown
from repro.config import (
    CPUConfig,
    MemoryConfig,
    LinkConfig,
    FPGAConfig,
    GPUConfig,
    PowerConfig,
    SystemConfig,
    DLRMConfig,
    EmbeddingTableConfig,
    MLPConfig,
    HARPV2_SYSTEM,
    PAPER_MODELS,
    PAPER_BATCH_SIZES,
    DLRM1,
    DLRM2,
    DLRM3,
    DLRM4,
    DLRM5,
    DLRM6,
    dlrm_preset,
)
from repro.dlrm import (
    DLRM,
    DLRMOutput,
    DLRMBatch,
    SparseTrace,
    EmbeddingBagCollection,
    DenseEmbeddingTable,
    VirtualEmbeddingTable,
    sparse_lengths_sum,
    MLP,
)
from repro.backends import (
    Backend,
    BackendCapabilities,
    available_backends,
    get_backend,
    register_backend,
)
from repro.experiment import (
    Experiment,
    ExperimentResult,
    ResultCache,
    default_cache,
)
from repro.cpu import CPUOnlyRunner
from repro.gpu import CPUGPURunner
from repro.core import (
    CentaurDevice,
    CentaurRunner,
    EBStreamer,
    DenseAcceleratorComplex,
    FPGAResourceModel,
)
from repro.power import PowerModel
from repro.serving import (
    AdaptiveWindowBatching,
    CloseOnFullBatching,
    ClusterReport,
    FixedSizeBatching,
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    ReplicaSpec,
    RoundRobinDispatcher,
    SizeBucketedBatching,
    TimeoutBatching,
)
from repro.workloads import (
    ArrivalProcess,
    ConstantRateArrivals,
    DiurnalArrivals,
    InferenceRequest,
    OnOffArrivals,
    PerTableTrace,
    PoissonArrivals,
    ReplayArrivals,
    TraceModel,
    TrafficMix,
    UniformTrace,
    Workload,
    WorkingSetTrace,
    ZipfianTrace,
    poisson_workload,
)
from repro.analysis import headline_summary

__all__ = [
    "__version__",
    "PAPER_TITLE",
    "PAPER_VENUE",
    "PAPER_AUTHORS",
    "ReproError",
    "ConfigurationError",
    "ModelShapeError",
    "TraceError",
    "SimulationError",
    "CapacityError",
    "ResourceEstimationError",
    "InferenceResult",
    "LatencyBreakdown",
    "CPUConfig",
    "MemoryConfig",
    "LinkConfig",
    "FPGAConfig",
    "GPUConfig",
    "PowerConfig",
    "SystemConfig",
    "DLRMConfig",
    "EmbeddingTableConfig",
    "MLPConfig",
    "HARPV2_SYSTEM",
    "PAPER_MODELS",
    "PAPER_BATCH_SIZES",
    "DLRM1",
    "DLRM2",
    "DLRM3",
    "DLRM4",
    "DLRM5",
    "DLRM6",
    "dlrm_preset",
    "DLRM",
    "DLRMOutput",
    "DLRMBatch",
    "SparseTrace",
    "EmbeddingBagCollection",
    "DenseEmbeddingTable",
    "VirtualEmbeddingTable",
    "sparse_lengths_sum",
    "MLP",
    "Backend",
    "BackendCapabilities",
    "available_backends",
    "get_backend",
    "register_backend",
    "Experiment",
    "ExperimentResult",
    "ResultCache",
    "default_cache",
    "CPUOnlyRunner",
    "CPUGPURunner",
    "CentaurDevice",
    "CentaurRunner",
    "EBStreamer",
    "DenseAcceleratorComplex",
    "FPGAResourceModel",
    "PowerModel",
    "FixedSizeBatching",
    "TimeoutBatching",
    "CloseOnFullBatching",
    "AdaptiveWindowBatching",
    "SizeBucketedBatching",
    "Fleet",
    "FleetSpec",
    "ClusterReport",
    "ReplicaSpec",
    "RoundRobinDispatcher",
    "JoinShortestQueueDispatcher",
    "LeastLoadedDispatcher",
    "PowerOfTwoChoicesDispatcher",
    "ArrivalProcess",
    "PoissonArrivals",
    "ConstantRateArrivals",
    "OnOffArrivals",
    "DiurnalArrivals",
    "ReplayArrivals",
    "InferenceRequest",
    "TraceModel",
    "UniformTrace",
    "ZipfianTrace",
    "WorkingSetTrace",
    "PerTableTrace",
    "TrafficMix",
    "Workload",
    "poisson_workload",
    "headline_summary",
]
