"""The :class:`Workload` object: arrivals + traces + traffic mix, composed.

A workload answers three questions about the traffic a serving system sees:

* **when** do requests arrive (:class:`~repro.workloads.arrivals.ArrivalProcess`),
* **what** do they look up (:class:`~repro.workloads.traces.TraceModel`),
* **which** models do they target (:class:`~repro.workloads.mix.TrafficMix`).

All three are stateless descriptions; randomness enters through one seed at
generation time, split explicitly (via :class:`numpy.random.SeedSequence`)
between the arrival stream, the mix tagging, the trace draws and an
embedding-update stream (:meth:`Workload.seeds`), so changing how one
dimension consumes randomness never perturbs the others.

Workloads are the unit the rest of the system speaks:
``Fleet.serve_workload`` and ``Experiment.workloads(...).serve(...)`` both
take one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.workloads.arrivals import ArrivalProcess, InferenceRequest, as_arrival_process
from repro.workloads.mix import TrafficMix
from repro.workloads.traces import DLRMBatch, TraceModel, UniformTrace, model_batch


class SeedStreams(NamedTuple):
    """The independent children one user-facing seed splits into."""

    arrivals: np.random.SeedSequence
    mix: np.random.SeedSequence
    trace: np.random.SeedSequence
    updates: np.random.SeedSequence


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
    @staticmethod
    def seeds(seed: int) -> SeedStreams:
        """Split one user-facing seed into named, independent sub-streams.

        The one seed layout of every serving run: arrivals, mix tags, trace
        draws and embedding-update pushes never share an RNG.
        """
        return SeedStreams(*np.random.SeedSequence(seed).spawn(len(SeedStreams._fields)))

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
        seeds = self.seeds(seed)
        names = self.mix.name_stream(seeds.mix) if self.mix is not None else None
        return self.arrivals.arrivals(
            duration_s=duration_s,
            num_requests=num_requests,
            seed=seeds.arrivals,
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
        rng = np.random.default_rng(self.seeds(seed).trace)
        return model_batch(self.trace, rng, model, batch_size)

    def batches(
        self, model: DLRMConfig, batch_size: int, count: int, seed: int = 0
    ) -> Iterator[DLRMBatch]:
        """``count`` independent batches (one shared trace RNG stream)."""
        rng = np.random.default_rng(self.seeds(seed).trace)
        for _ in range(count):
            yield model_batch(self.trace, rng, model, batch_size)

    # ------------------------------------------------------------------
    @property
    def models(self) -> Tuple[DLRMConfig, ...]:
        """Models this workload targets (empty when the front-end decides)."""
        if self.mix is None:
            return ()
        return self.mix.models


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
