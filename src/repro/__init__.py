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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".version": ("__version__", "PAPER_TITLE", "PAPER_VENUE", "PAPER_AUTHORS"),
        ".errors": (
            "ReproError", "ConfigurationError", "ModelShapeError", "TraceError", "SimulationError",
            "CapacityError", "ResourceEstimationError",
        ),
        ".results": ("InferenceResult", "LatencyBreakdown"),
        ".config.system": (
            "CPUConfig", "MemoryConfig", "LinkConfig", "FPGAConfig", "GPUConfig", "PowerConfig",
            "SystemConfig",
        ),
        ".config.models": ("DLRMConfig", "EmbeddingTableConfig", "MLPConfig"),
        ".config.presets": (
            "HARPV2_SYSTEM", "PAPER_MODELS", "PAPER_BATCH_SIZES", "DLRM1", "DLRM2", "DLRM3",
            "DLRM4", "DLRM5", "DLRM6", "dlrm_preset",
        ),
        ".dlrm.model": ("DLRM", "DLRMOutput"),
        ".dlrm.embedding": (
            "EmbeddingBagCollection", "DenseEmbeddingTable", "VirtualEmbeddingTable",
            "sparse_lengths_sum",
        ),
        ".dlrm.mlp": ("MLP",),
        ".backends.base": ("Backend", "BackendCapabilities"),
        ".backends.registry": ("available_backends", "get_backend", "register_backend"),
        ".experiment.experiment": ("Experiment", "ExperimentResult"),
        ".experiment.cache": ("ResultCache", "default_cache"),
        ".cpu.cpu_runner": ("CPUOnlyRunner",),
        ".gpu.gpu_runner": ("CPUGPURunner",),
        ".core.centaur": ("CentaurDevice", "CentaurRunner"),
        ".core.eb_streamer": ("EBStreamer",),
        ".core.dense_complex": ("DenseAcceleratorComplex",),
        ".core.resources": ("FPGAResourceModel",),
        ".power.models": ("PowerModel",),
        ".serving.batching": (
            "FixedSizeBatching", "TimeoutBatching", "CloseOnFullBatching", "AdaptiveWindowBatching",
            "SizeBucketedBatching",
        ),
        ".serving.fleet": ("Fleet", "FleetSpec"),
        ".serving.cluster": ("ClusterReport", "ReplicaSpec"),
        ".serving.dispatch": (
            "RoundRobinDispatcher", "JoinShortestQueueDispatcher", "LeastLoadedDispatcher",
            "PowerOfTwoChoicesDispatcher",
        ),
        ".workloads.arrivals": (
            "ArrivalProcess", "PoissonArrivals", "ConstantRateArrivals", "OnOffArrivals",
            "DiurnalArrivals", "ReplayArrivals", "InferenceRequest",
        ),
        ".workloads.traces": (
            "DLRMBatch", "SparseTrace", "TraceModel", "UniformTrace", "ZipfianTrace",
            "WorkingSetTrace", "PerTableTrace",
        ),
        ".workloads.mix": ("TrafficMix",),
        ".workloads.workload": ("Workload", "poisson_workload"),
        ".analysis.evaluation": ("headline_summary",),
    },
)
