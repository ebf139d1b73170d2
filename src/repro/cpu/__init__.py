"""CPU-only performance model (the paper's baseline design point).

The model mirrors how DLRM executes on a Xeon-class server with a
PyTorch/Caffe2 backend: embedding tables are processed one operator call at
a time with OpenMP parallelism across the batch dimension, MLPs run as
AVX GEMMs, and the memory system serves sparse gathers with the limited
memory-level parallelism a latency-optimized core can sustain.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".gemm": ("CPUGemmModel", "GemmEstimate"),
        ".threads": ("ThreadPoolModel",),
        ".embedding_exec": ("EmbeddingExecutionModel", "EmbeddingExecutionEstimate"),
        ".cpu_runner": ("CPUOnlyRunner",),
        ".trace_exec": ("TraceDrivenEmbeddingSimulator", "TraceDrivenProfile"),
    },
)
