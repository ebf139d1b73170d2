"""Request-arrival processes: lazy, seedable generators of inference traffic.

An :class:`ArrivalProcess` describes *when* requests reach the serving
system.  Every process is a stateless description — all randomness enters
through an explicit seed at iteration time, so the same process object can
drive many independent streams — and every stream is a lazy iterator of
arrival times.  An arrival is its time, a bare float: the serving path
(``Fleet.serve_workload``) drives these times straight into the replicas,
so a multi-million-request run allocates no per-request object and holds
only the times of the requests in flight.

Provided processes:

* :class:`PoissonArrivals` — memoryless open-loop traffic (the classic
  serving assumption; exponential inter-arrival times).
* :class:`OnOffArrivals` — a two-state Markov-modulated Poisson process
  (MMPP-2): bursts at one rate, lulls at another, with exponentially
  distributed sojourns.  Models flash crowds and batchy upstream callers.
* :class:`DiurnalArrivals` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day-curve between a trough and a peak (sampled by
  thinning).  Models the day/night swing of a user-facing service.
* :class:`ConstantRateArrivals` — deterministic, evenly spaced arrivals
  (closed-loop load-generator behaviour; zero burstiness baseline).
* :class:`ReplayArrivals` — replay an explicit array of arrival timestamps
  (production traces, hand-built worst cases).

Serving code composes an :class:`ArrivalProcess` into a
:class:`repro.workloads.Workload`.  Callers that want request objects get
them at the edge: :meth:`ArrivalProcess.generate` returns an eager list of
numbered :class:`InferenceRequest` objects and :func:`requests_from_times`
numbers any time stream lazily.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError

#: Arrival times are drawn/cumsum'd in chunks of this many samples: large
#: enough that numpy vectorization dominates, small enough that a stream
#: holds only a few thousand floats ahead of the simulation clock.
CHUNK_SIZE = 4096

#: Seed material accepted everywhere: an integer or a numpy SeedSequence
#: (the latter is how :class:`repro.workloads.Workload` splits its seed).
SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class InferenceRequest:
    """One ranking request (one sample) arriving at the serving system.

    Attributes:
        request_id: Monotonically increasing identifier.
        arrival_time_s: Time the request entered the queue.
        model_name: Model this request targets; ``None`` means "whatever
            model the serving replica is configured with" (single-model
            streams).  Multi-model traffic mixes tag every request.
    """

    request_id: int
    arrival_time_s: float
    model_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise SimulationError(f"request_id must be non-negative, got {self.request_id}")
        if self.arrival_time_s < 0:
            raise SimulationError(
                f"arrival_time_s must be non-negative, got {self.arrival_time_s}"
            )


def _make_rng(seed: SeedLike) -> np.random.Generator:
    return np.random.default_rng(seed)


def requests_from_times(
    times: Iterable[float], model_names: Optional[Iterable[Optional[str]]] = None
) -> Iterator[InferenceRequest]:
    """Number a stream of checked arrival times into request objects.

    ``model_names``, when given, tags each request in step (a traffic
    mix's :meth:`~repro.workloads.mix.TrafficMix.name_stream`).  The frozen
    dataclass's ``__init__`` (three ``object.__setattr__`` calls and a
    ``__post_init__`` frame) would dominate a long stream, so each
    request's fields are set as ``__init__`` would; :meth:`ArrivalProcess.arrivals`
    has already checked every time.
    """
    names = model_names if model_names is not None else repeat(None)
    new = object.__new__
    for request_id, time, name in zip(count(), times, names):
        request = new(InferenceRequest)
        fields = request.__dict__
        fields["request_id"] = request_id
        fields["arrival_time_s"] = time
        fields["model_name"] = name
        yield request


class ArrivalProcess:
    """Base class: a stateless description of an arrival-time distribution.

    Subclasses implement :meth:`_time_chunks` — a lazy iterator of
    columns (lists) of non-decreasing arrival timestamps for a given seed,
    unbounded except for a replay.  The base class flattens them into
    :meth:`times` and cuts them into bounded :meth:`arrivals` streams one
    column at a time.
    """

    #: Short machine-readable kind, used in derived workload names and the CLI.
    kind: str = "abstract"

    @property
    def mean_rate_qps(self) -> float:
        """Long-run average arrival rate in queries per second."""
        raise NotImplementedError

    def times(self, seed: SeedLike = 0) -> Iterator[float]:
        """Yield an unbounded, non-decreasing stream of arrival times."""
        return chain.from_iterable(self._time_chunks(seed))

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        """Yield the arrival times in consecutive non-decreasing columns."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def arrivals(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> Iterator[float]:
        """Lazily generate arrival times for a time window or a request count.

        Exactly one of ``duration_s`` / ``num_requests`` must be provided.
        Each arrival is its time, a bare float: the serving path carries
        no per-request object (see :func:`requests_from_times` for one).

        Args:
            duration_s: Generate every arrival with ``time <= duration_s``.
            num_requests: Generate exactly this many arrivals.
            seed: Stream seed; identical seeds give identical streams.
        """
        if (duration_s is None) == (num_requests is None):
            raise SimulationError("provide exactly one of duration_s or num_requests")
        if duration_s is not None and duration_s <= 0:
            raise SimulationError(f"duration_s must be positive, got {duration_s}")
        if num_requests is not None and num_requests <= 0:
            raise SimulationError(f"num_requests must be positive, got {num_requests}")
        return chain.from_iterable(self._bounded_columns(duration_s, num_requests, seed))

    def _bounded_columns(
        self, duration_s: Optional[float], num_requests: Optional[int], seed: SeedLike
    ) -> Iterator[List[float]]:
        """The columns of :meth:`_time_chunks`, cut at the window or count."""
        remaining = num_requests
        for column in self._time_chunks(seed):
            last = False
            if duration_s is not None and column and column[-1] > duration_s:
                column = column[: bisect_right(column, duration_s)]
                last = True
            if remaining is not None and len(column) >= remaining:
                column = column[:remaining]
                last = True
            if column and min(column) < 0:
                raise SimulationError(
                    f"arrival_time_s must be non-negative, got {min(column)}"
                )
            yield column
            if last:
                return
            if remaining is not None:
                remaining -= len(column)

    def generate(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> List[InferenceRequest]:
        """Eagerly materialize :meth:`arrivals` as numbered requests (small
        streams only)."""
        return list(
            requests_from_times(
                self.arrivals(duration_s=duration_s, num_requests=num_requests, seed=seed)
            )
        )

    def describe(self) -> str:
        """One-line human-readable summary for tables and reports."""
        return f"{self.kind} @ {self.mean_rate_qps:,.0f} QPS"


def _check_rate(rate_qps: float, what: str = "rate_qps") -> None:
    if rate_qps <= 0:
        raise SimulationError(f"{what} must be positive, got {rate_qps}")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival times at a fixed rate.

    The stream is drawn in vectorized chunks; numpy's ``Generator`` produces
    the same variate sequence whether drawn one at a time or in blocks, so
    this is draw-for-draw identical to the legacy per-request loop.
    """

    rate_qps: float
    kind = "poisson"

    def __post_init__(self) -> None:
        _check_rate(self.rate_qps)

    @property
    def mean_rate_qps(self) -> float:
        return self.rate_qps

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        rng = _make_rng(seed)
        scale = 1.0 / self.rate_qps
        now = 0.0
        while True:
            gaps = rng.exponential(scale, size=CHUNK_SIZE)
            # Fold the running clock into the first gap *before* the cumsum
            # so float additions associate exactly like the sequential
            # ``now += gap`` loop — bit-identical across chunk boundaries.
            gaps[0] += now
            np.cumsum(gaps, out=gaps)
            now = float(gaps[-1])
            yield gaps.tolist()


@dataclass(frozen=True)
class ConstantRateArrivals(ArrivalProcess):
    """Deterministic, evenly spaced arrivals (a closed-loop load generator).

    Request ``k`` (1-based) arrives at ``k / rate_qps`` — the same "first
    arrival strictly after time zero" convention the stochastic processes
    follow, with zero variance.
    """

    rate_qps: float
    kind = "constant"

    def __post_init__(self) -> None:
        _check_rate(self.rate_qps)

    @property
    def mean_rate_qps(self) -> float:
        return self.rate_qps

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        period = 1.0 / self.rate_qps
        k = 1
        while True:
            block = np.arange(k, k + CHUNK_SIZE, dtype=np.float64) * period
            k += CHUNK_SIZE
            yield block.tolist()


@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty two-state Markov-modulated Poisson process (MMPP-2).

    The source alternates between an ON state (arrivals at ``on_rate_qps``)
    and an OFF state (arrivals at ``off_rate_qps``, which may be zero for
    pure silence); sojourn times in each state are exponential with the
    given means.  This is the standard analytic model for bursty traffic —
    flash crowds, retry storms, batchy upstream callers.

    Attributes:
        on_rate_qps: Arrival rate while the source is ON.
        off_rate_qps: Arrival rate while the source is OFF (``>= 0``).
        mean_on_s: Mean sojourn in the ON state.
        mean_off_s: Mean sojourn in the OFF state.
    """

    on_rate_qps: float
    off_rate_qps: float = 0.0
    mean_on_s: float = 0.1
    mean_off_s: float = 0.1
    kind = "bursty"

    def __post_init__(self) -> None:
        _check_rate(self.on_rate_qps, "on_rate_qps")
        if self.off_rate_qps < 0:
            raise SimulationError(
                f"off_rate_qps must be non-negative, got {self.off_rate_qps}"
            )
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise SimulationError(
                f"sojourn means must be positive, got on={self.mean_on_s}, "
                f"off={self.mean_off_s}"
            )

    @property
    def mean_rate_qps(self) -> float:
        total = self.mean_on_s + self.mean_off_s
        return (
            self.on_rate_qps * self.mean_on_s + self.off_rate_qps * self.mean_off_s
        ) / total

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        rng = _make_rng(seed)
        now = 0.0
        on = True
        while True:
            rate = self.on_rate_qps if on else self.off_rate_qps
            sojourn = float(rng.exponential(self.mean_on_s if on else self.mean_off_s))
            end = now + sojourn
            if rate > 0.0:
                t = now
                scale = 1.0 / rate
                # Size chunks near the sojourn's expected arrival count so
                # short bursts do not discard most of a 4096-draw block.
                chunk = int(min(CHUNK_SIZE, max(64, rate * sojourn * 1.25 + 16)))
                while True:
                    gaps = rng.exponential(scale, size=chunk)
                    gaps[0] += t
                    np.cumsum(gaps, out=gaps)
                    inside = gaps[gaps <= end]
                    yield inside.tolist()
                    if len(inside) < len(gaps):
                        break
                    t = float(gaps[-1])
            now = end
            on = not on


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Day-curve traffic: a non-homogeneous Poisson process via thinning.

    The instantaneous rate follows a raised sinusoid between ``trough_qps``
    and ``peak_qps`` with the given period::

        rate(t) = trough + (peak - trough) * (1 - cos(2 pi t / period)) / 2

    so a stream starts at the trough, crests mid-period and returns.
    Candidates are drawn at ``peak_qps`` and accepted with probability
    ``rate(t) / peak_qps`` (Lewis-Shedler thinning), which is exact for any
    bounded rate curve.

    Attributes:
        trough_qps: Minimum (night-time) arrival rate.
        peak_qps: Maximum (prime-time) arrival rate.
        period_s: Length of one full day-curve cycle in simulated seconds.
    """

    trough_qps: float
    peak_qps: float
    period_s: float = 1.0
    kind = "diurnal"

    def __post_init__(self) -> None:
        _check_rate(self.trough_qps, "trough_qps")
        _check_rate(self.peak_qps, "peak_qps")
        if self.peak_qps < self.trough_qps:
            raise SimulationError(
                f"peak_qps ({self.peak_qps}) must be >= trough_qps ({self.trough_qps})"
            )
        if self.period_s <= 0:
            raise SimulationError(f"period_s must be positive, got {self.period_s}")

    @property
    def mean_rate_qps(self) -> float:
        return (self.trough_qps + self.peak_qps) / 2.0

    def rate_at(self, time_s: float) -> float:
        """The instantaneous arrival rate of the day curve at ``time_s``."""
        swing = (self.peak_qps - self.trough_qps) / 2.0
        return self.trough_qps + swing * (1.0 - np.cos(2.0 * np.pi * time_s / self.period_s))

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        rng = _make_rng(seed)
        scale = 1.0 / self.peak_qps
        now = 0.0
        while True:
            gaps = rng.exponential(scale, size=CHUNK_SIZE)
            gaps[0] += now
            np.cumsum(gaps, out=gaps)
            now = float(gaps[-1])
            accept = rng.random(CHUNK_SIZE) * self.peak_qps <= self.rate_at(gaps)
            yield gaps[accept].tolist()


@dataclass(frozen=True)
class ReplayArrivals(ArrivalProcess):
    """Replay an explicit, non-decreasing array of arrival timestamps.

    The seed is accepted (and ignored) so replays compose with everything
    that seeds its arrival process.  Unlike the stochastic processes the
    stream is finite; bounding by ``num_requests`` beyond its length simply
    exhausts it.
    """

    arrival_times_s: Tuple[float, ...]
    kind = "replay"

    def __init__(self, arrival_times_s: Union[Sequence[float], np.ndarray]):
        times = np.asarray(arrival_times_s, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise SimulationError("replay needs a non-empty 1-D array of arrival times")
        if times[0] < 0:
            raise SimulationError("replay arrival times must be non-negative")
        if np.any(np.diff(times) < 0):
            raise SimulationError("replay arrival times must be non-decreasing")
        object.__setattr__(self, "arrival_times_s", tuple(times.tolist()))

    @property
    def mean_rate_qps(self) -> float:
        span = self.arrival_times_s[-1]
        return len(self.arrival_times_s) / span if span > 0 else float("inf")

    def _time_chunks(self, seed: SeedLike) -> Iterator[List[float]]:
        times = iter(self.arrival_times_s)
        return iter(lambda: list(islice(times, CHUNK_SIZE)), [])

    def describe(self) -> str:
        return f"replay of {len(self.arrival_times_s)} recorded arrivals"


def as_arrival_process(spec: Union[ArrivalProcess, float, int]) -> ArrivalProcess:
    """Coerce a bare number (QPS) or a process into an :class:`ArrivalProcess`."""
    if isinstance(spec, ArrivalProcess):
        return spec
    if isinstance(spec, (int, float)):
        return PoissonArrivals(rate_qps=float(spec))
    raise SimulationError(
        f"cannot interpret {spec!r} as an arrival process; pass an "
        "ArrivalProcess or a Poisson rate in QPS"
    )
