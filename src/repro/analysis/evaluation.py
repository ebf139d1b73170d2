"""Centaur evaluation results (Figures 13-15) and the Section VII ablation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config.models import DLRMConfig
from repro.config.presets import PAPER_BATCH_SIZES, PAPER_MODELS
from repro.config.system import SystemConfig
from repro.analysis.characterization import single_table_model
from repro.errors import SimulationError
from repro.experiment.experiment import Experiment, ExperimentResult, VariantSweep
from repro.results import InferenceResult
from repro.utils.stats_utils import geometric_mean


# ---------------------------------------------------------------------------
# Figure 13: EB-Streamer effective gather throughput
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure13Row:
    """One bar of Figure 13(a): Centaur gather throughput and its improvement.

    ``lookups_per_table`` records the total number of lookups performed on
    one table for the whole batch (the x-axis of Figure 13(b)).
    """

    model_name: str
    batch_size: int
    centaur_throughput: float
    cpu_throughput: float
    lookups_per_table: float = 0.0

    @property
    def improvement(self) -> float:
        if self.cpu_throughput == 0:
            return float("inf")
        return self.centaur_throughput / self.cpu_throughput


def figure13_centaur_throughput(
    system: SystemConfig,
    models: Optional[Sequence[DLRMConfig]] = None,
    batch_sizes: Optional[Iterable[int]] = None,
) -> List[Figure13Row]:
    """Reproduce Figure 13(a): Centaur's effective gather throughput vs CPU-only."""
    models = tuple(models) if models is not None else PAPER_MODELS
    batch_sizes = tuple(batch_sizes) if batch_sizes is not None else PAPER_BATCH_SIZES
    grid = (
        Experiment(system)
        .backends("cpu", "centaur")
        .models(models)
        .batch_sizes(batch_sizes)
        .run()
    )
    rows: List[Figure13Row] = []
    for model in models:
        for batch_size in batch_sizes:
            rows.append(
                Figure13Row(
                    model_name=model.name,
                    batch_size=batch_size,
                    centaur_throughput=grid.get(
                        "centaur", model.name, batch_size
                    ).effective_embedding_throughput,
                    cpu_throughput=grid.get(
                        "cpu", model.name, batch_size
                    ).effective_embedding_throughput,
                    lookups_per_table=model.gathers_per_table * batch_size,
                )
            )
    return rows


def figure13_lookup_sweep(
    system: SystemConfig,
    reference: Optional[DLRMConfig] = None,
    batch_sizes: Optional[Iterable[int]] = None,
    lookups: Iterable[int] = (1, 2, 5, 10, 20, 50, 100, 200, 400, 800),
) -> List[Figure13Row]:
    """Reproduce Figure 13(b): Centaur throughput vs lookups per table."""
    reference = reference if reference is not None else PAPER_MODELS[3]  # DLRM(4)
    batch_sizes = tuple(batch_sizes) if batch_sizes is not None else PAPER_BATCH_SIZES
    lookups = tuple(lookups)
    sweep = VariantSweep(
        system,
        ("cpu", "centaur"),
        {count: single_table_model(reference, count) for count in lookups},
        batch_sizes,
    )
    rows: List[Figure13Row] = []
    for batch_size in batch_sizes:
        for lookup_count in lookups:
            rows.append(
                Figure13Row(
                    model_name=sweep.model(lookup_count).name,
                    batch_size=batch_size,
                    centaur_throughput=sweep.result(
                        lookup_count, "centaur", batch_size
                    ).effective_embedding_throughput,
                    cpu_throughput=sweep.result(
                        lookup_count, "cpu", batch_size
                    ).effective_embedding_throughput,
                    lookups_per_table=float(lookup_count * batch_size),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 14: Centaur latency breakdown and speedup over CPU-only
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure14Row:
    """One bar of Figure 14: Centaur breakdown plus its speedup over CPU-only."""

    model_name: str
    batch_size: int
    idx_fraction: float
    emb_fraction: float
    dnf_fraction: float
    mlp_fraction: float
    other_fraction: float
    centaur_latency_s: float
    cpu_latency_s: float

    @property
    def speedup(self) -> float:
        return self.cpu_latency_s / self.centaur_latency_s

    def fractions_sum(self) -> float:
        return (
            self.idx_fraction
            + self.emb_fraction
            + self.dnf_fraction
            + self.mlp_fraction
            + self.other_fraction
        )


def figure14_centaur_breakdown(
    system: SystemConfig,
    models: Optional[Sequence[DLRMConfig]] = None,
    batch_sizes: Optional[Iterable[int]] = None,
    sweep: Optional[ExperimentResult] = None,
) -> List[Figure14Row]:
    """Reproduce Figure 14: Centaur's latency breakdown and end-to-end speedup.

    ``sweep`` is a precomputed grid covering ``cpu`` and ``centaur``; it is
    run here when omitted.
    """
    models = tuple(models) if models is not None else PAPER_MODELS
    batch_sizes = tuple(batch_sizes) if batch_sizes is not None else PAPER_BATCH_SIZES
    if sweep is None:
        sweep = (
            Experiment(system)
            .backends("cpu", "centaur")
            .models(models)
            .batch_sizes(batch_sizes)
            .run()
        )
    rows: List[Figure14Row] = []
    for model in models:
        for batch_size in batch_sizes:
            centaur = sweep.get("Centaur", model.name, batch_size)
            cpu = sweep.get("CPU-only", model.name, batch_size)
            fractions = centaur.breakdown.fractions()
            rows.append(
                Figure14Row(
                    model_name=model.name,
                    batch_size=batch_size,
                    idx_fraction=fractions.get("IDX", 0.0),
                    emb_fraction=fractions.get("EMB", 0.0),
                    dnf_fraction=fractions.get("DNF", 0.0),
                    mlp_fraction=fractions.get("MLP", 0.0),
                    other_fraction=fractions.get("Other", 0.0),
                    centaur_latency_s=centaur.latency_seconds,
                    cpu_latency_s=cpu.latency_seconds,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 15: performance and energy-efficiency of all three design points
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure15Row:
    """One group of Figure 15: all design points normalized to CPU-GPU."""

    model_name: str
    batch_size: int
    cpu_gpu_performance: float
    cpu_only_performance: float
    centaur_performance: float
    cpu_gpu_efficiency: float
    cpu_only_efficiency: float
    centaur_efficiency: float


def figure15_comparison(
    system: SystemConfig,
    models: Optional[Sequence[DLRMConfig]] = None,
    batch_sizes: Optional[Iterable[int]] = None,
    sweep: Optional[ExperimentResult] = None,
) -> List[Figure15Row]:
    """Reproduce Figure 15: performance and energy-efficiency vs CPU-GPU.

    ``sweep`` is a precomputed grid covering all three design points; it is
    run here when omitted.
    """
    models = tuple(models) if models is not None else PAPER_MODELS
    batch_sizes = tuple(batch_sizes) if batch_sizes is not None else PAPER_BATCH_SIZES
    if sweep is None:
        sweep = (
            Experiment(system)
            .backends("cpu", "cpu-gpu", "centaur")
            .models(models)
            .batch_sizes(batch_sizes)
            .run()
        )
    rows: List[Figure15Row] = []
    for model in models:
        for batch_size in batch_sizes:
            cpu_gpu = sweep.get("CPU-GPU", model.name, batch_size)
            cpu = sweep.get("CPU-only", model.name, batch_size)
            centaur = sweep.get("Centaur", model.name, batch_size)
            # Performance is normalized to CPU-GPU (the slowest design point
            # in the paper), i.e. CPU-GPU latency / design latency.
            rows.append(
                Figure15Row(
                    model_name=model.name,
                    batch_size=batch_size,
                    cpu_gpu_performance=1.0,
                    cpu_only_performance=cpu.speedup_over(cpu_gpu),
                    centaur_performance=centaur.speedup_over(cpu_gpu),
                    cpu_gpu_efficiency=1.0,
                    cpu_only_efficiency=cpu.energy_efficiency_over(cpu_gpu),
                    centaur_efficiency=centaur.energy_efficiency_over(cpu_gpu),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Section VII ablation: CPU<->FPGA bandwidth and the cache-bypass path
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AblationPoint:
    """End-to-end Centaur latency under one link configuration."""

    label: str
    link_bandwidth: float
    cache_bypass: bool
    model_name: str
    batch_size: int
    latency_s: float
    gather_throughput: float
    speedup_over_harpv2: float


def ablation_link_bandwidth(
    system: SystemConfig,
    model: Optional[DLRMConfig] = None,
    batch_size: int = 64,
    bandwidth_scales: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    include_bypass: bool = True,
) -> List[AblationPoint]:
    """Quantify the Section VII discussion: faster links and the bypass path.

    The paper argues that upcoming package-level signaling (hundreds of GB/s)
    and a cache-bypassing gather path would proportionally lift Centaur's
    embedding throughput.  This sweep scales the HARPv2 link bandwidth and
    optionally enables the bypass path at DRAM bandwidth.
    """
    model = model if model is not None else PAPER_MODELS[3]  # DLRM(4)
    if batch_size <= 0:
        raise SimulationError(f"batch_size must be positive, got {batch_size}")

    def centaur_point(target_system: SystemConfig) -> InferenceResult:
        """One cached Centaur design point on a (possibly modified) platform."""
        grid = (
            Experiment(target_system)
            .backends("centaur")
            .models(model)
            .batch_sizes(batch_size)
            .run()
        )
        return grid.get("centaur", model.name, batch_size)

    baseline = centaur_point(system)
    points: List[AblationPoint] = []
    for scale in bandwidth_scales:
        if scale <= 0:
            raise SimulationError(f"bandwidth scales must be positive, got {scale}")
        from dataclasses import replace as dc_replace

        link = dc_replace(
            system.link,
            theoretical_bandwidth=system.link.theoretical_bandwidth * scale,
            effective_bandwidth=system.link.effective_bandwidth * scale,
            max_outstanding_requests=int(system.link.max_outstanding_requests * scale),
        )
        result = centaur_point(system.with_link(link))
        points.append(
            AblationPoint(
                label=f"{scale:.0f}x link",
                link_bandwidth=link.effective_bandwidth,
                cache_bypass=False,
                model_name=model.name,
                batch_size=batch_size,
                latency_s=result.latency_seconds,
                gather_throughput=result.effective_embedding_throughput,
                speedup_over_harpv2=baseline.latency_seconds / result.latency_seconds,
            )
        )
    if include_bypass:
        bypass_link = system.link.with_bypass(system.memory.peak_bandwidth)
        from dataclasses import replace as dc_replace

        bypass_link = dc_replace(
            bypass_link,
            max_outstanding_requests=system.link.max_outstanding_requests * 4,
        )
        result = centaur_point(system.with_link(bypass_link))
        points.append(
            AblationPoint(
                label="cache-bypass @ DRAM bw",
                link_bandwidth=system.memory.peak_bandwidth,
                cache_bypass=True,
                model_name=model.name,
                batch_size=batch_size,
                latency_s=result.latency_seconds,
                gather_throughput=result.effective_embedding_throughput,
                speedup_over_harpv2=baseline.latency_seconds / result.latency_seconds,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Headline summary (the abstract's numbers)
# ---------------------------------------------------------------------------
def headline_summary(
    system: SystemConfig,
    models: Optional[Sequence[DLRMConfig]] = None,
    batch_sizes: Optional[Iterable[int]] = None,
) -> Dict[str, float]:
    """Compute the paper's headline metrics over the full sweep.

    Returns a dictionary with the min/max/geomean Centaur speedup and
    energy-efficiency improvement over CPU-only, the mean gather-throughput
    improvement, and the CPU-only vs CPU-GPU comparison.
    """
    models = tuple(models) if models is not None else PAPER_MODELS
    batch_sizes = tuple(batch_sizes) if batch_sizes is not None else PAPER_BATCH_SIZES
    sweep = (
        Experiment(system)
        .backends("cpu", "cpu-gpu", "centaur")
        .models(models)
        .batch_sizes(batch_sizes)
        .run()
    )

    speedups: List[float] = []
    efficiencies: List[float] = []
    bandwidth_improvements: List[float] = []
    cpu_vs_gpu_perf: List[float] = []
    cpu_vs_gpu_eff: List[float] = []
    for model in models:
        for batch_size in batch_sizes:
            cpu = sweep.get("CPU-only", model.name, batch_size)
            gpu = sweep.get("CPU-GPU", model.name, batch_size)
            centaur = sweep.get("Centaur", model.name, batch_size)
            speedups.append(centaur.speedup_over(cpu))
            efficiencies.append(centaur.energy_efficiency_over(cpu))
            cpu_throughput = cpu.effective_embedding_throughput
            if cpu_throughput > 0:
                bandwidth_improvements.append(
                    centaur.effective_embedding_throughput / cpu_throughput
                )
            cpu_vs_gpu_perf.append(cpu.speedup_over(gpu))
            cpu_vs_gpu_eff.append(cpu.energy_efficiency_over(gpu))

    return {
        "centaur_speedup_min": min(speedups),
        "centaur_speedup_max": max(speedups),
        "centaur_speedup_geomean": geometric_mean(speedups),
        "centaur_efficiency_min": min(efficiencies),
        "centaur_efficiency_max": max(efficiencies),
        "centaur_efficiency_geomean": geometric_mean(efficiencies),
        "gather_bw_improvement_mean": sum(bandwidth_improvements)
        / len(bandwidth_improvements),
        "gather_bw_improvement_max": max(bandwidth_improvements),
        "gather_bw_improvement_min": min(bandwidth_improvements),
        "cpu_vs_gpu_performance_geomean": geometric_mean(cpu_vs_gpu_perf),
        "cpu_vs_gpu_efficiency_geomean": geometric_mean(cpu_vs_gpu_eff),
    }
