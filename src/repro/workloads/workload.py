"""The :class:`Workload` object: arrivals + traces + traffic mix, composed.

A workload answers three questions about the traffic a serving system sees:

* **when** do requests arrive (:class:`~repro.workloads.arrivals.ArrivalProcess`),
* **what** do they look up (:class:`~repro.workloads.traces.TraceModel`),
* **which** models do they target (:class:`~repro.workloads.mix.TrafficMix`).

All three are stateless descriptions; randomness enters through one seed at
generation time, split explicitly (via :class:`numpy.random.SeedSequence`)
between the arrival stream, the mix tagging and the trace draws, so changing
how one dimension consumes randomness never perturbs the others.

Workloads are the unit the rest of the system speaks:
``Fleet.serve_workload`` and ``Experiment.workloads(...).serve(...)`` both
take one, and backend
capability flags (:class:`repro.backends.base.BackendCapabilities`) gate
which workloads a backend can price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.workloads.arrivals import ArrivalProcess, InferenceRequest, as_arrival_process
from repro.workloads.mix import TrafficMix
from repro.workloads.traces import DLRMBatch, TraceModel, UniformTrace, model_batch

#: Capability tags a workload may require from a backend.
TAG_MULTI_MODEL = "multi-model"
TAG_SKEWED_TRACE = "skewed-trace"


@dataclass(frozen=True)
class Workload:
    """One complete, composable traffic description.

    Attributes:
        arrivals: When requests arrive.  A bare number is accepted and
            interpreted as a Poisson rate in QPS.
        trace: Sparse-index locality model (uniform by default).
        mix: Which models the requests target; ``None`` leaves the model
            choice to the serving front-end (single-model streams).
        name: Label used by experiment grids and the CLI; derived from the
            parts when omitted.
    """

    arrivals: ArrivalProcess
    trace: TraceModel = field(default_factory=UniformTrace)
    mix: Optional[TrafficMix] = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", as_arrival_process(self.arrivals))
        if not isinstance(self.trace, TraceModel):
            raise SimulationError(
                f"trace must be a TraceModel, got {self.trace!r}"
            )
        if self.mix is not None and not isinstance(self.mix, TrafficMix):
            raise SimulationError(f"mix must be a TrafficMix, got {self.mix!r}")
        if not self.name:
            object.__setattr__(self, "name", self._derive_name())

    def _derive_name(self) -> str:
        parts = [f"{self.arrivals.kind}-{self.arrivals.mean_rate_qps:,.0f}qps"]
        if self.trace.kind != "uniform":
            parts.append(self.trace.kind)
        if self.mix is not None and self.mix.is_multi_model:
            parts.append(f"mix{len(self.mix)}")
        return "-".join(parts)

    # ------------------------------------------------------------------
    # Seed splitting: one user-facing seed fans out into independent
    # sub-streams so arrivals, mix tags and traces never share an RNG.
    # ------------------------------------------------------------------
    @staticmethod
    def _split_seed(seed: int) -> Tuple[np.random.SeedSequence, ...]:
        return tuple(np.random.SeedSequence(seed).spawn(3))

    # ------------------------------------------------------------------
    def requests(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> Iterator[InferenceRequest]:
        """A lazy, deterministic stream of (optionally model-tagged) requests.

        Exactly one of ``duration_s`` / ``num_requests`` must be provided.
        The stream is time-ordered and holds O(1) memory: serving drivers
        pull arrivals on demand, so a 5M-request run materializes only the
        requests currently in flight.
        """
        arrival_seed, mix_seed, _ = self._split_seed(seed)
        names = self.mix.name_stream(mix_seed) if self.mix is not None else None
        return self.arrivals.arrivals(
            duration_s=duration_s,
            num_requests=num_requests,
            seed=arrival_seed,
            model_names=names,
        )

    def request_list(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> List[InferenceRequest]:
        """Eagerly materialized :meth:`requests` (small streams only)."""
        return list(self.requests(duration_s=duration_s, num_requests=num_requests, seed=seed))

    # ------------------------------------------------------------------
    def batch(self, model: DLRMConfig, batch_size: int, seed: int = 0) -> DLRMBatch:
        """One inference batch drawn from this workload's trace model."""
        _, _, trace_seed = self._split_seed(seed)
        rng = np.random.default_rng(trace_seed)
        return model_batch(self.trace, rng, model, batch_size)

    def batches(
        self, model: DLRMConfig, batch_size: int, count: int, seed: int = 0
    ) -> Iterator[DLRMBatch]:
        """``count`` independent batches (one shared trace RNG stream)."""
        _, _, trace_seed = self._split_seed(seed)
        rng = np.random.default_rng(trace_seed)
        for _ in range(count):
            yield model_batch(self.trace, rng, model, batch_size)

    # ------------------------------------------------------------------
    @property
    def models(self) -> Tuple[DLRMConfig, ...]:
        """Models this workload targets (empty when the front-end decides)."""
        if self.mix is None:
            return ()
        return self.mix.models

    def required_tags(self) -> Tuple[str, ...]:
        """Capability tags a backend must support to price this workload."""
        tags: List[str] = []
        if self.mix is not None and self.mix.is_multi_model:
            tags.append(TAG_MULTI_MODEL)
        if self.trace.kind not in ("uniform", "abstract"):
            tags.append(TAG_SKEWED_TRACE)
        return tuple(tags)

    def incompatibility(self, capabilities) -> Optional[str]:
        """Why a backend with ``capabilities`` cannot serve this workload.

        Returns ``None`` when the backend is compatible.  ``capabilities``
        is duck-typed (any object with the
        :class:`~repro.backends.base.BackendCapabilities` gating fields) so
        this module never imports the backends package.
        """
        tags = self.required_tags()
        if TAG_MULTI_MODEL in tags and not getattr(
            capabilities, "supports_multi_model", True
        ):
            return (
                f"workload {self.name!r} blends {len(self.mix)} models but the "
                "backend cannot serve multi-model traffic"
            )
        if TAG_SKEWED_TRACE in tags and not getattr(
            capabilities, "supports_skewed_traces", True
        ):
            return (
                f"workload {self.name!r} uses a {self.trace.kind} trace model but "
                "the backend only prices uniform-locality traffic"
            )
        return None

    def compatible_with(self, capabilities) -> bool:
        """True when a backend with ``capabilities`` can serve this workload."""
        return self.incompatibility(capabilities) is None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-part one-liner for tables, reports and the CLI."""
        parts = [self.arrivals.describe(), f"trace: {self.trace.describe()}"]
        if self.mix is not None:
            parts.append(f"mix: {self.mix.label}")
        return " | ".join(parts)

    def __repr__(self) -> str:
        return f"Workload({self.name}: {self.describe()})"


def poisson_workload(
    rate_qps: float,
    trace: Optional[TraceModel] = None,
    mix: Optional[TrafficMix] = None,
    name: str = "",
) -> Workload:
    """Shorthand for the most common workload shape."""
    from repro.workloads.arrivals import PoissonArrivals

    return Workload(
        arrivals=PoissonArrivals(rate_qps=rate_qps),
        trace=trace if trace is not None else UniformTrace(),
        mix=mix,
        name=name,
    )
