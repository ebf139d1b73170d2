"""Result containers shared by the CPU-only, CPU-GPU and Centaur runners.

Every design point produces an :class:`InferenceResult` per (model, batch)
pair; the analysis layer (:mod:`repro.analysis`) aggregates these into the
paper's figures and tables.  Keeping one shared result type guarantees that
speedups and efficiency ratios compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, Mapping, Optional

from repro.errors import SimulationError
from repro.memsys.stats import MemoryTrafficStats
from repro.utils.stats_utils import safe_divide


class LatencyBreakdown:
    """An ordered mapping of execution-stage name to latency in seconds.

    Stage names are free-form; the conventions used by the runners are:

    * CPU-only / CPU-GPU: ``"EMB"``, ``"MLP"``, ``"Other"`` (Figure 5), plus
      ``"PCIe"`` for the CPU-GPU design point.
    * Centaur: ``"IDX"``, ``"EMB"``, ``"DNF"``, ``"MLP"``, ``"Other"``
      (Figure 14).
    """

    def __init__(self, stages: Optional[Mapping[str, float]] = None):
        self._stages: Dict[str, float] = {}
        if stages:
            for name, value in stages.items():
                self.add(name, value)

    def add(self, stage: str, seconds: float) -> None:
        """Add (or accumulate into) a stage."""
        if not 0 <= seconds < inf:
            raise SimulationError(
                f"stage {stage!r} latency must be finite and non-negative, got {seconds}"
            )
        self._stages[stage] = self._stages.get(stage, 0.0) + float(seconds)

    def get(self, stage: str) -> float:
        """Latency of one stage (0.0 when the stage is absent)."""
        return self._stages.get(stage, 0.0)

    @property
    def stages(self) -> Dict[str, float]:
        """A copy of the stage -> seconds mapping (insertion ordered)."""
        return dict(self._stages)

    @property
    def total_seconds(self) -> float:
        return sum(self._stages.values())

    def fraction(self, stage: str) -> float:
        """Share of the total latency spent in one stage."""
        return safe_divide(self.get(stage), self.total_seconds)

    def fractions(self) -> Dict[str, float]:
        """Share of total latency per stage."""
        total = self.total_seconds
        return {name: safe_divide(value, total) for name, value in self._stages.items()}

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """Return a copy with every stage multiplied by ``factor``."""
        if factor < 0:
            raise SimulationError(f"scale factor must be non-negative, got {factor}")
        return LatencyBreakdown({name: value * factor for name, value in self._stages.items()})

    def to_dict(self) -> Dict[str, float]:
        """Stage -> seconds mapping (JSON-compatible, insertion ordered)."""
        return dict(self._stages)

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "LatencyBreakdown":
        """Inverse of :meth:`to_dict`."""
        return cls(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{name}={value:.3e}" for name, value in self._stages.items())
        return f"LatencyBreakdown({inner})"


@dataclass
class InferenceResult:
    """Latency, traffic and energy of one inference batch on one design point.

    Attributes:
        design_point: ``"CPU-only"``, ``"CPU-GPU"`` or ``"Centaur"``.
        model_name: Name of the DLRM configuration (e.g. ``"DLRM(3)"``).
        batch_size: Input batch size.
        breakdown: Per-stage latency.
        embedding_traffic: Traffic/cache profile of the embedding layer.
        mlp_traffic: Traffic/cache profile of the dense layers.
        power_watts: Average power draw of the design point while serving.
        extra: Free-form auxiliary metrics (e.g. link utilization).
    """

    design_point: str
    model_name: str
    batch_size: int
    breakdown: LatencyBreakdown
    embedding_traffic: Optional[MemoryTrafficStats] = None
    mlp_traffic: Optional[MemoryTrafficStats] = None
    power_watts: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 <= self.power_watts < inf:
            raise SimulationError(
                f"power_watts must be finite and non-negative, got {self.power_watts}"
            )

    # ------------------------------------------------------------------
    @property
    def latency_seconds(self) -> float:
        """End-to-end latency of the batch."""
        return self.breakdown.total_seconds

    @property
    def throughput_samples_per_second(self) -> float:
        """Inference throughput in samples per second."""
        return safe_divide(self.batch_size, self.latency_seconds)

    @property
    def energy_joules(self) -> float:
        """Energy of the batch (power x latency), following the paper's method."""
        return self.power_watts * self.latency_seconds

    @property
    def energy_per_sample_joules(self) -> float:
        return safe_divide(self.energy_joules, self.batch_size)

    @property
    def effective_embedding_throughput(self) -> float:
        """Useful embedding bytes per second over the embedding stage time.

        This is the paper's "effective memory throughput" metric: the size of
        all gathered embedding vectors divided by the latency of the
        embedding layer stage alone.
        """
        if self.embedding_traffic is None:
            return 0.0
        emb_time = self.breakdown.get("EMB")
        return safe_divide(self.embedding_traffic.useful_bytes, emb_time)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialize to a plain, JSON-compatible dictionary.

        The inverse, :meth:`from_dict`, reconstructs an equal result; the
        round trip is exact because no value is rounded or re-derived.  Used
        by :class:`repro.experiment.ResultCache` persistence and the CLI.
        """
        return {
            "design_point": self.design_point,
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "breakdown": self.breakdown.to_dict(),
            "embedding_traffic": (
                self.embedding_traffic.to_dict()
                if self.embedding_traffic is not None
                else None
            ),
            "mlp_traffic": (
                self.mlp_traffic.to_dict() if self.mlp_traffic is not None else None
            ),
            "power_watts": self.power_watts,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "InferenceResult":
        """Rebuild an :class:`InferenceResult` serialized by :meth:`to_dict`.

        Every key :meth:`to_dict` writes is required — a truncated or
        hand-edited payload raises ``KeyError`` instead of silently zeroing
        metrics (the traffic profiles are themselves optional and may be
        ``None``, but their keys must be present).
        """
        embedding_traffic = payload["embedding_traffic"]
        mlp_traffic = payload["mlp_traffic"]
        return cls(
            design_point=str(payload["design_point"]),
            model_name=str(payload["model_name"]),
            batch_size=int(payload["batch_size"]),  # type: ignore[arg-type]
            breakdown=LatencyBreakdown.from_dict(payload["breakdown"]),  # type: ignore[arg-type]
            embedding_traffic=(
                MemoryTrafficStats.from_dict(embedding_traffic)  # type: ignore[arg-type]
                if embedding_traffic is not None
                else None
            ),
            mlp_traffic=(
                MemoryTrafficStats.from_dict(mlp_traffic)  # type: ignore[arg-type]
                if mlp_traffic is not None
                else None
            ),
            power_watts=float(payload["power_watts"]),  # type: ignore[arg-type]
            extra=dict(payload["extra"]),  # type: ignore[arg-type]
        )

    def speedup_over(self, baseline: "InferenceResult") -> float:
        """End-to-end speedup of this result relative to ``baseline``."""
        _check_comparable(self, baseline)
        return safe_divide(baseline.latency_seconds, self.latency_seconds)

    def energy_efficiency_over(self, baseline: "InferenceResult") -> float:
        """Energy-efficiency improvement (baseline energy / this energy)."""
        _check_comparable(self, baseline)
        return safe_divide(baseline.energy_joules, self.energy_joules)


def _check_comparable(lhs: InferenceResult, rhs: InferenceResult) -> None:
    if lhs.model_name != rhs.model_name or lhs.batch_size != rhs.batch_size:
        raise SimulationError(
            "results are not comparable: "
            f"({lhs.model_name}, batch {lhs.batch_size}) vs "
            f"({rhs.model_name}, batch {rhs.batch_size})"
        )
