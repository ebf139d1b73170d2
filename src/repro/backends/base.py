"""The :class:`Backend` protocol and capability flags.

A *backend* is anything that can price one inference batch on one device:
the CPU-only baseline, the CPU-GPU design point, Centaur, and any future
device variant.  The protocol is the contract between the device models and
every layer above them (experiments, figures, serving clusters, the CLI):
code written against it never needs to know which concrete runner class is
behind a registry name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Tuple, runtime_checkable

from repro.config.models import DLRMConfig
from repro.results import InferenceResult


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do beyond pricing a batch.

    Attributes:
        reports_embedding_throughput: The backend attaches an embedding
            traffic profile, so Figure 7/13-style effective gather
            throughput can be read off its results.
        reports_mlp_traffic: The backend attaches an MLP cache/traffic
            profile (needed by the Figure 6 MPKI comparison).
        uses_accelerator: An attached device (GPU or FPGA) executes part of
            the model.
        offloads_embeddings: Embedding gathers run outside the CPU cores
            (Centaur's EB-Streamer), not just the dense layers.
        stages: Latency-breakdown stage names this backend emits, in
            render order.
        supports_multi_model: The backend can price several DLRM
            configurations on one device, which multi-model
            :class:`~repro.workloads.mix.TrafficMix` workloads require
            (batches execute one per-model segment at a time).
        supports_elastic_scaling: Replicas of this backend can be
            commissioned and drained at runtime, so an elastic
            :class:`~repro.serving.fleet.Fleet` (a policy or a fault
            schedule) may serve it.  A backend
            whose device cannot be hot-added (fixed appliance, exclusive
            host resource) should clear this so autoscaled experiments fail
            loudly instead of modelling an impossible fleet.
        provision_warmup_s: Realistic commission-to-traffic delay for one
            replica of this device — model load for CPUs, bitstream /
            partial-reconfiguration time for FPGAs.  Used as the default
            ``warmup_s`` of autoscaled fleets built through the registry.
        supports_sharding: The backend's embedding tables live in (host)
            memory addressable per shard, so a sharded
            :class:`~repro.serving.fleet.Fleet` may partition them across devices and cache hot rows in front of
            the gather.  Every built-in design point keeps this set (all
            three gather from shared host memory); a backend whose
            embedding storage cannot be partitioned (e.g. a monolithic
            appliance with fused table storage) should clear it so sharded
            experiments fail loudly instead of modelling an impossible
            fleet.
        supports_skewed_traces: The backend's performance model remains
            *valid* (possibly conservative) for non-uniform index streams
            (Zipf / hot-cold working sets).  The built-in analytic runners
            keep this set: they are calibrated to the paper's uniform
            regime, which is the pessimal-locality case, so pricing skewed
            traffic at that calibration is an upper bound on latency — the
            trace model itself shapes functional batches and cache studies
            (:meth:`repro.workloads.Workload.batch`,
            :func:`repro.workloads.model_batch`), not the serving latency
            estimate.  A backend whose model would be *wrong* (not
            merely conservative) under skew should clear this so skewed
            workloads fail loudly instead of silently mispricing.
    """

    reports_embedding_throughput: bool = False
    reports_mlp_traffic: bool = False
    uses_accelerator: bool = False
    offloads_embeddings: bool = False
    stages: Tuple[str, ...] = ()
    supports_multi_model: bool = True
    supports_sharding: bool = True
    supports_skewed_traces: bool = True
    supports_elastic_scaling: bool = True
    provision_warmup_s: float = 0.0

    def supports_workload(self, workload) -> bool:
        """True when a workload's requirements fit these capabilities."""
        return workload.compatible_with(self)

    def rejection_reason(self, workload) -> "str | None":
        """Why a workload cannot run here, or ``None`` when it can."""
        return workload.incompatibility(self)


@runtime_checkable
class Backend(Protocol):
    """One device design point, addressable by its registry name.

    Implementations must be deterministic: two calls of :meth:`run` with the
    same ``(model, batch_size)`` must return equal results, which is what
    lets :class:`repro.experiment.ResultCache` memoize design points.
    """

    @property
    def name(self) -> str:
        """Registry key of this backend (e.g. ``"cpu"``, ``"centaur"``)."""
        ...

    @property
    def design_point(self) -> str:
        """Paper-facing label (e.g. ``"CPU-only"``, ``"Centaur"``)."""
        ...

    @property
    def capabilities(self) -> BackendCapabilities:
        """Feature flags describing what this backend reports."""
        ...

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        """Price one inference batch end to end."""
        ...

    def energy(self, model: DLRMConfig, batch_size: int) -> float:
        """Energy in joules of one batch (power x latency)."""
        ...
