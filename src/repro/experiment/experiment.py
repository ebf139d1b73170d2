"""Declarative experiment grids over registered backends.

:class:`Experiment` is the single entry point for "run these backends over
these models at these batch sizes": the figure functions, the sensitivity
sweeps, the benchmarks, the CLI and the examples all build their grids here
instead of constructing runners by hand.  Results come back as a queryable
:class:`ExperimentResult`, and every design point is memoized in a shared
:class:`~repro.experiment.cache.ResultCache` so regenerating all paper
figures computes each ``(backend, model, batch, system)`` point exactly
once.

The serving grids (:meth:`Experiment.serve`, :meth:`Experiment.shard`)
return the same keyed-axis result, each point served by the
:class:`~repro.serving.fleet.Fleet` a :class:`~repro.serving.fleet.FleetSpec`
describes.

Usage::

    from repro.experiment import Experiment

    result = (
        Experiment(HARPV2_SYSTEM)
        .backends("cpu", "centaur")
        .models(PAPER_MODELS)
        .batch_sizes(PAPER_BATCH_SIZES)
        .run()
    )
    centaur = result.get("centaur", "DLRM(3)", 64)
    table = result.pivot(value="latency_seconds", backend="centaur")
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends.registry import (
    available_backends,
    canonical_backend_name,
    get_backend,
)
from repro.config.models import DLRMConfig
from repro.config.presets import PAPER_BATCH_SIZES, PAPER_MODELS
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiment.cache import ResultCache, default_cache, system_fingerprint
from repro.results import InferenceResult
from repro.serving.fleet import FleetSpec

#: Key of one grid point: one coordinate per axis of its result.
ExperimentKey = Tuple[object, ...]

#: One CSV column: its header and a cell getter over ``(key, value)``.
Column = Tuple[str, Callable[[ExperimentKey, object], object]]

#: A value extractor for pivots: attribute/property name or callable.
ValueSpec = Union[str, Callable[[InferenceResult], float]]

#: Sentinel distinguishing "use the process default cache" from "no cache".
_USE_DEFAULT_CACHE = object()

#: Axes whose coordinates are integers; lookups coerce them.
_INT_AXES = frozenset({"batch_size", "shards"})


def _extract(result: InferenceResult, value: ValueSpec) -> float:
    if callable(value):
        return value(result)
    attr = getattr(result, value)
    return attr


class ExperimentResult:
    """All points of one experiment grid, queryable by key.

    Every grid flavour returns one.  :meth:`Experiment.run` keys
    ``(backend, model_name, batch_size)`` to
    :class:`~repro.results.InferenceResult` values; :meth:`Experiment.serve`
    keys ``(backend, workload, model)`` and :meth:`Experiment.shard` keys
    ``(backend, workload, shards, strategy, cache, updates)`` to serving
    reports.  Backend coordinates accept canonical names, their aliases
    *and* the paper's design-point labels, so ``get("centaur", ...)`` and
    ``get("Centaur", ...)`` address the same point.

    Args:
        system: Hardware platform the grid ran on.
        axes: Axis names, one per key coordinate.
        columns: The CSV columns, or a callable building them from the
            grid's values (for columns that depend on the data).
        defaults: Coordinates :meth:`get` fills in for omitted axes.
    """

    def __init__(
        self,
        system: SystemConfig,
        axes: Sequence[str],
        columns: Union[Sequence[Column], Callable[[List[object]], Sequence[Column]]],
        defaults: Optional[Dict[str, object]] = None,
    ):
        self.system = system
        self.axes = tuple(axes)
        self._columns = columns
        self._defaults = dict(defaults or {})
        self._points: Dict[ExperimentKey, object] = {}

    # ------------------------------------------------------------------
    def add(self, key: ExperimentKey, value) -> None:
        """Record one point; insertion order is the grid's order."""
        self._points[key] = value

    def _backend_key(self, backend: str) -> str:
        try:
            return canonical_backend_name(backend)
        except ConfigurationError:
            # Results from since-unregistered (ad-hoc) backends stay
            # addressable by their stored key; anything else is a typo and
            # must fail loudly rather than match nothing.
            stored = {key[0] for key in self._points}
            if backend in stored:
                return backend
            raise ConfigurationError(
                f"unknown backend {backend!r}; this grid holds: "
                f"{', '.join(sorted(stored)) or '(empty)'}"
            )

    def _coordinates(self, coords: Dict[str, object]) -> Dict[int, object]:
        """``{axis position: coordinate}``, normalized; ``None`` matches any."""
        unknown = sorted(set(coords) - set(self.axes))
        if unknown:
            raise TypeError(f"unknown axes {unknown}; this grid's axes: {self.axes}")
        positions: Dict[int, object] = {}
        for axis, value in coords.items():
            if value is None:
                continue
            if axis == "backend":
                value = self._backend_key(value)
            elif axis in _INT_AXES:
                value = int(value)
            positions[self.axes.index(axis)] = value
        return positions

    def _matching(self, positions: Dict[int, object]) -> List[object]:
        return [
            value
            for key, value in self._points.items()
            if all(key[index] == coordinate for index, coordinate in positions.items())
        ]

    def get(self, *coords):
        """The value of one point, coordinates in axis order.

        Omitted trailing coordinates take the grid's defaults, or match any
        value when the given ones leave exactly one point.
        """
        if len(coords) > len(self.axes):
            raise TypeError(f"this grid has {len(self.axes)} axes {self.axes}")
        named = dict(self._defaults)
        named.update(zip(self.axes, coords))
        positions = self._coordinates(named)
        if len(positions) == len(self.axes):
            key = tuple(positions[index] for index in range(len(self.axes)))
            if key not in self._points:
                raise KeyError(f"no experiment result for {key}")
            return self._points[key]
        matches = self._matching(positions)
        if len(matches) != 1:
            given = tuple(positions.get(index) for index in range(len(self.axes)))
            raise KeyError(
                f"{len(matches)} experiment results match {given}; pass every axis of "
                f"{self.axes}"
            )
        return matches[0]

    def filter(self, **coords) -> List[object]:
        """All values matching the given axis coordinates, in grid order."""
        return self._matching(self._coordinates(coords))

    def axis(self, name: str) -> List[object]:
        """The distinct coordinates of one axis, in grid order."""
        index = self.axes.index(name)
        return list(dict.fromkeys(key[index] for key in self._points))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points.items())

    # ------------------------------------------------------------------
    def _require_batch_grid(self, method: str) -> None:
        if self.axes != _BATCH_AXES:
            raise SimulationError(
                f"{method}() reads a batch grid keyed {_BATCH_AXES}; this grid's "
                f"axes are {self.axes} — use get(), filter() or to_csv()"
            )

    def pivot(
        self,
        value: ValueSpec = "latency_seconds",
        backend: Optional[str] = None,
    ) -> Dict[object, Dict[int, float]]:
        """Model x batch-size table of one metric of a batch grid.

        Args:
            value: Attribute/property name of :class:`InferenceResult`
                (e.g. ``"latency_seconds"``, ``"energy_joules"``) or a
                callable mapping a result to a number.
            backend: Restrict to one backend; with several backends present
                and no restriction, row keys become ``(backend, model)``
                pairs.

        Returns:
            ``{row_key: {batch_size: value}}``.
        """
        self._require_batch_grid("pivot")
        backend_key = self._backend_key(backend) if backend is not None else None
        multi_backend = backend is None and len(self.axis("backend")) > 1
        table: Dict[object, Dict[int, float]] = {}
        for (b, model_name, batch), result in self._points.items():
            if backend_key is not None and b != backend_key:
                continue
            row_key = (b, model_name) if multi_backend else model_name
            table.setdefault(row_key, {})[batch] = _extract(result, value)
        return table

    def to_dict(self) -> Dict[str, object]:
        """Serialize a batch grid (JSON-compatible)."""
        self._require_batch_grid("to_dict")
        return {
            "system_fingerprint": system_fingerprint(self.system),
            "results": [
                {"backend": key[0], "result": result.to_dict()}
                for key, result in self._points.items()
            ],
        }

    def to_csv(self) -> str:
        """Render the grid as CSV (one row per point)."""
        columns = self._columns
        if callable(columns):
            columns = columns(list(self._points.values()))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([header for header, _ in columns])
        for key, value in self._points.items():
            writer.writerow([cell(key, value) for _, cell in columns])
        return buffer.getvalue()


def _key_columns(axes: Sequence[str]) -> List[Column]:
    """One CSV column per key coordinate, headed by its axis name."""
    return [(axis, lambda key, _, index=index: key[index]) for index, axis in enumerate(axes)]


_BATCH_AXES = ("backend", "model_name", "batch_size")


def _batch_columns(results: List[InferenceResult]) -> List[Column]:
    """Batch-grid columns: one latency column per stage any result has."""
    stages = list(dict.fromkeys(s for result in results for s in result.breakdown.stages))
    return [
        ("backend", lambda key, _: key[0]),
        ("design_point", lambda _, r: r.design_point),
        ("model", lambda _, r: r.model_name),
        ("batch_size", lambda _, r: r.batch_size),
        ("latency_s", lambda _, r: repr(r.latency_seconds)),
        ("throughput_sps", lambda _, r: repr(r.throughput_samples_per_second)),
        ("power_w", lambda _, r: repr(r.power_watts)),
        ("energy_j", lambda _, r: repr(r.energy_joules)),
    ] + [
        (f"{stage.lower()}_s", lambda _, r, stage=stage: repr(r.breakdown.get(stage)))
        for stage in stages
    ]


_SERVING_AXES = ("backend", "workload", "model")

_SERVING_COLUMNS = _key_columns(_SERVING_AXES) + [
    ("completed_requests", lambda _, r: r.completed_requests),
    ("p50_ms", lambda _, r: repr(r.latency.p50_s * 1e3)),
    ("p95_ms", lambda _, r: repr(r.latency.p95_s * 1e3)),
    ("p99_ms", lambda _, r: repr(r.latency.p99_s * 1e3)),
    ("mean_ms", lambda _, r: repr(r.latency.mean_s * 1e3)),
    ("avg_batch", lambda _, r: repr(r.average_batch_size)),
    ("energy_per_request_mj", lambda _, r: repr(r.energy_per_request_joules * 1e3)),
]

_SHARDING_AXES = ("backend", "workload", "shards", "strategy", "cache", "updates")

#: Label of the cache-off and no-update-stream coordinates.
_OFF = "off"

_SHARDING_COLUMNS = _key_columns(_SHARDING_AXES) + [
    ("completed_requests", lambda _, r: r.completed_requests),
    ("p50_ms", lambda _, r: repr(r.latency.p50_s * 1e3)),
    ("p99_ms", lambda _, r: repr(r.latency.p99_s * 1e3)),
    ("mean_ms", lambda _, r: repr(r.latency.mean_s * 1e3)),
    ("hit_rate", lambda _, r: repr(r.sharding.hit_rate)),
    ("lookup_imbalance", lambda _, r: repr(r.sharding.lookup_imbalance)),
    ("cross_shard_mb", lambda _, r: repr(r.sharding.cross_shard_bytes / 1e6)),
    ("mean_gather_us", lambda _, r: repr(r.sharding.mean_gather_s * 1e6)),
    ("update_invalidations", lambda _, r: r.sharding.update_invalidations),
    ("update_refreshes", lambda _, r: r.sharding.update_refreshes),
    ("stale_hits", lambda _, r: r.sharding.stale_hits),
]


class Experiment:
    """Fluent builder for a (backends x models x batch sizes) grid.

    Args:
        system: Hardware platform shared by every backend in the grid.
        cache: Result cache; defaults to the process-wide shared cache.
            Pass ``None`` to disable memoization for this experiment.
        jobs: Worker processes for grid evaluation (``1`` = serial,
            ``0`` = one per CPU).  Results are byte-identical at every
            setting; see :mod:`repro.experiment.executor`.

    The builder methods mutate and return ``self`` so grids read as one
    chained expression; defaults reproduce the paper's full evaluation grid
    (all registered backends, Table I models, batch sizes 1-128).
    """

    def __init__(self, system: SystemConfig, cache=_USE_DEFAULT_CACHE, jobs: int = 1):
        self.system = system
        self._cache = cache
        self._backend_names: Optional[Tuple[str, ...]] = None
        self._models: Tuple[DLRMConfig, ...] = PAPER_MODELS
        self._batch_sizes: Tuple[int, ...] = PAPER_BATCH_SIZES
        self._workloads: Tuple["Workload", ...] = ()
        self._jobs = jobs
        self._progress: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    def backends(self, *names: str) -> "Experiment":
        """Select backends by registry name/alias (order preserved).

        Names resolving to one backend (an alias beside its canonical name,
        say) select it once: points are keyed by canonical name.
        """
        if len(names) == 1 and not isinstance(names[0], str):
            names = tuple(names[0])  # accept a single iterable, too
        canonical = tuple(dict.fromkeys(canonical_backend_name(name) for name in names))
        if not canonical:
            raise SimulationError("an experiment needs at least one backend")
        self._backend_names = canonical
        return self

    def models(self, *models) -> "Experiment":
        """Select the model configurations of the grid (order preserved; a
        configuration given twice is selected once).

        Raises:
            SimulationError: When two *different* configurations share a
                name — results are addressed by model name, so such a grid
                would silently collapse the two onto one point.
        """
        if len(models) == 1 and isinstance(models[0], (list, tuple)):
            models = tuple(models[0])
        if not models:
            raise SimulationError("an experiment needs at least one model")
        by_name: Dict[str, DLRMConfig] = {}
        for model in models:
            existing = by_name.get(model.name)
            if existing is not None and existing != model:
                raise SimulationError(
                    f"two different model configurations share the name "
                    f"{model.name!r}; rename one so grid points stay distinct"
                )
            by_name[model.name] = model
        self._models = tuple(by_name.values())
        return self

    def batch_sizes(self, *sizes) -> "Experiment":
        """Select the input batch sizes of the grid (order preserved; a
        repeated size is selected once)."""
        if len(sizes) == 1 and isinstance(sizes[0], (list, tuple)):
            sizes = tuple(sizes[0])
        if not sizes:
            raise SimulationError("an experiment needs at least one batch size")
        for size in sizes:
            if int(size) <= 0:
                raise SimulationError(f"batch sizes must be positive, got {size}")
        self._batch_sizes = tuple(dict.fromkeys(int(size) for size in sizes))
        return self

    def workloads(self, *workloads) -> "Experiment":
        """Select serving workloads as a grid axis (see :meth:`serve`).

        Accepts :class:`~repro.workloads.Workload` objects or bare numbers
        (interpreted as Poisson rates in QPS).  Workload names must be
        distinct — serving results are addressed by name.
        """
        from repro.workloads.workload import Workload as _Workload

        if len(workloads) == 1 and isinstance(workloads[0], (list, tuple)):
            workloads = tuple(workloads[0])
        if not workloads:
            raise SimulationError("an experiment needs at least one workload")
        parsed = []
        for workload in workloads:
            if not isinstance(workload, _Workload):
                from repro.workloads.workload import poisson_workload

                workload = poisson_workload(float(workload))
            parsed.append(workload)
        names = [workload.name for workload in parsed]
        if len(set(names)) != len(names):
            raise SimulationError(
                f"workload names must be distinct, got {names}; pass name=..."
            )
        self._workloads = tuple(parsed)
        return self

    def cache(self, cache: Optional[ResultCache]) -> "Experiment":
        """Use a specific cache (or ``None`` to disable memoization)."""
        self._cache = cache
        return self

    def jobs(self, jobs: int) -> "Experiment":
        """Evaluate grids with this many worker processes.

        ``1`` (the default) is the serial in-process path; ``0`` means one
        worker per CPU.  Every grid product is byte-identical to the
        serial run at any setting — parallelism only changes wall-clock.
        Workers resolve backends through the registry, so ad-hoc backends
        registered only in this process require ``jobs=1``.
        """
        from repro.experiment.executor import resolve_jobs

        resolve_jobs(jobs)  # validate eagerly; store the raw setting
        self._jobs = int(jobs)
        return self

    def progress(self, callback: Optional[Callable[[str], None]]) -> "Experiment":
        """Log one line per completed grid point through ``callback``.

        Lines look like ``[12/108] cpu DLRM(3) b64 computed`` (batch
        grids say ``cached`` vs ``computed``; serving grids say
        ``served``).  Logging never alters any grid product.
        """
        self._progress = callback
        return self

    # ------------------------------------------------------------------
    @property
    def backend_names(self) -> Tuple[str, ...]:
        """The grid's backends (defaults to every registered backend)."""
        if self._backend_names is not None:
            return self._backend_names
        return available_backends()

    @property
    def grid_models(self) -> Tuple[DLRMConfig, ...]:
        return self._models

    @property
    def grid_batch_sizes(self) -> Tuple[int, ...]:
        return self._batch_sizes

    @property
    def grid_workloads(self) -> Tuple["Workload", ...]:
        return self._workloads

    def _resolve_cache(self) -> Optional[ResultCache]:
        if self._cache is _USE_DEFAULT_CACHE:
            return default_cache()
        return self._cache

    def _grid_points(self) -> List[Tuple[str, DLRMConfig, int]]:
        """The grid in serial evaluation order: model x batch x backend."""
        return [
            (name, model, batch_size)
            for model in self._models
            for batch_size in self._batch_sizes
            for name in self.backend_names
        ]

    def run(self) -> ExperimentResult:
        """Evaluate the grid and return the collected results.

        Design points already in the cache are returned without touching
        the device models; everything else is computed once and memoized.
        With ``jobs > 1`` the uncached points fan out over worker
        processes, each pricing into a fresh local cache that is merged
        back — so "each point computed exactly once" holds across the
        whole pool, and the collected grid is byte-identical to a serial
        run.
        """
        from repro.experiment.executor import resolve_jobs

        cache = self._resolve_cache()
        points = self._grid_points()
        if resolve_jobs(self._jobs) > 1:
            return self._run_parallel(points, cache)
        backends = {
            name: get_backend(name, self.system)
            for name in dict.fromkeys(name for name, _, _ in points)
        }
        outcome = ExperimentResult(self.system, _BATCH_AXES, _batch_columns)
        total = len(points)
        for done, (name, model, batch_size) in enumerate(points, start=1):
            if cache is not None:
                hits = cache.hits
                result = cache.get_or_compute(
                    backends[name], model, batch_size, self.system, backend_name=name
                )
                was_cached = cache.hits > hits
            else:
                was_cached = False
                result = backends[name].run(model, batch_size)
            outcome.add((name, result.model_name, result.batch_size), result)
            if self._progress is not None:
                status = "cached" if was_cached else "computed"
                self._progress(
                    f"[{done}/{total}] {name} {model.name} b{batch_size} {status}"
                )
        return outcome

    def _run_parallel(
        self,
        points: List[Tuple[str, DLRMConfig, int]],
        cache: Optional[ResultCache],
    ) -> ExperimentResult:
        """Fan the grid's uncached points out over worker processes."""
        from repro.experiment.executor import (
            BatchChunk,
            GridExecutor,
            _run_batch_chunk,
            chunk_evenly,
        )

        executor = GridExecutor(self._jobs)
        outcome = ExperimentResult(self.system, _BATCH_AXES, _batch_columns)
        total = len(points)
        done = 0

        def emit(name: str, model: DLRMConfig, batch_size: int, status: str) -> None:
            nonlocal done
            done += 1
            if self._progress is not None:
                self._progress(
                    f"[{done}/{total}] {name} {model.name} b{batch_size} {status}"
                )

        if cache is None:
            chunks = chunk_evenly(points, executor.jobs * 4)
            payloads = [
                BatchChunk(self.system, tuple(chunk), memoize=False)
                for chunk in chunks
            ]

            def on_chunk(index: int, results) -> None:
                for name, model, batch_size in chunks[index]:
                    emit(name, model, batch_size, "computed")

            chunk_results = executor.map(_run_batch_chunk, payloads, on_result=on_chunk)
            for chunk, results in zip(chunks, chunk_results):
                for (name, _, _), result in zip(chunk, results):
                    outcome.add((name, result.model_name, result.batch_size), result)
            return outcome

        # Memoized path: ship each missing key exactly once, merge the
        # worker caches back, then collect every point (now a lookup) in
        # serial order.  Hit/miss accounting mirrors the serial loop: a
        # point whose key is cached — or already bound for a worker — is
        # the hit it would have been serially; each shipped key is the one
        # miss its worker records.
        shipped = set()
        pending: List[Tuple[str, DLRMConfig, int]] = []
        statuses: List[str] = []
        keys = [
            cache.key(name, model, batch_size, self.system)
            for name, model, batch_size in points
        ]
        for (name, model, batch_size), key in zip(points, keys):
            if key in cache or key in shipped:
                with cache._lock:
                    cache.hits += 1
                statuses.append("cached")
            else:
                shipped.add(key)
                pending.append((name, model, batch_size))
                statuses.append("computed")
        chunks = chunk_evenly(pending, executor.jobs * 4)
        payloads = [
            BatchChunk(self.system, tuple(chunk), memoize=True) for chunk in chunks
        ]

        def on_cache(index: int, worker_cache) -> None:
            for name, model, batch_size in chunks[index]:
                emit(name, model, batch_size, "computed")

        for worker_cache in executor.map(_run_batch_chunk, payloads, on_result=on_cache):
            cache.merge(worker_cache)
        for (name, model, batch_size), key, status in zip(points, keys, statuses):
            result = cache.peek(key)
            outcome.add((name, result.model_name, result.batch_size), result)
            if status == "cached":
                emit(name, model, batch_size, "cached")
        return outcome

    def _require_workloads(self, method: str) -> Tuple["Workload", ...]:
        if not self._workloads:
            raise SimulationError(
                f"no workloads selected; call .workloads(...) before .{method}()"
            )
        return self._workloads

    def serve(
        self,
        fleet: FleetSpec = FleetSpec(),
        *,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
        faults=None,
    ) -> ExperimentResult:
        """Run the serving grid: backends x workloads (x models) on one fleet.

        Requires :meth:`workloads`.  ``fleet`` is the front-end recipe every
        point is served by (one device by default; replicas, an autoscaling
        policy or shard and cache tiers select the others, see
        :class:`~repro.serving.fleet.FleetSpec`).  ``faults`` — a
        :class:`~repro.chaos.faults.FaultSchedule` or a compact spec string
        like ``"crash:at=0.1,restart=0.05"`` — is injected into every run,
        so each report carries an :class:`~repro.chaos.report.IncidentReport`.

        Every backend is capability-gated against the fleet and the
        workloads first.  Single-model workloads fan out over the
        experiment's model axis; workloads carrying a
        :class:`~repro.workloads.mix.TrafficMix` serve their own blend.
        Points are keyed ``(backend, workload, model)``; the points of one
        (backend, default model) share one fleet.
        """
        from repro.chaos.faults import FaultSchedule, parse_fault_schedule

        workloads = self._require_workloads("serve")
        if isinstance(faults, str):
            faults = parse_fault_schedule(faults)
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise ConfigurationError(
                f"faults must be a FaultSchedule or spec string, got {faults!r}"
            )
        for name in self.backend_names:
            fleet.check(name, workloads, faults)
        points = []
        for name in self.backend_names:
            for workload in workloads:
                mix = workload.mix
                for model in self._models if mix is None else workload.models[:1]:
                    key = (name, workload.name, model.name if mix is None else mix.label)
                    points.append((key, (name, model.name), fleet, model, workload))
        result = ExperimentResult(self.system, _SERVING_AXES, _SERVING_COLUMNS)
        return self._serve_points(result, points, duration_s, num_requests, seed, faults)

    def shard(
        self,
        shard_counts=(1, 2, 4),
        strategies=("table",),
        caches=(None,),
        updates=(None,),
        model: Optional[DLRMConfig] = None,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        batching=None,
        seed: int = 0,
    ) -> ExperimentResult:
        """Run the sharded-serving grid: shards x strategy x cache x updates.

        Every (backend, workload) point is served by a fresh sharded
        :class:`~repro.serving.fleet.Fleet` at each shard count / placement
        strategy / hot-row cache / embedding-push stream (``None`` = the
        read-only path), after capability gating.  Sharded
        serving is single-model: the partitioned model is ``model``, or the
        experiment's model axis when it holds exactly one entry.  Points are
        keyed ``(backend, workload, shards, strategy, cache, updates)``; a
        cache or update stream off is ``"off"``.
        """
        from repro.sharding.plan import STRATEGIES, ShardingStrategy

        workloads = self._require_workloads("shard")
        if model is None:
            if len(self._models) != 1:
                raise SimulationError(
                    f"sharded serving partitions one model; the grid holds "
                    f"{len(self._models)} — pass model=..."
                )
            model = self._models[0]
        if not shard_counts:
            raise SimulationError("a sharding grid needs at least one shard count")
        if not strategies:
            raise SimulationError("a sharding grid needs at least one strategy")
        shard_counts = [int(shards) for shards in shard_counts]
        caches = tuple(caches) or (None,)
        cache_labels = [_OFF if cache is None else cache.describe() for cache in caches]
        updates = tuple(updates) or (None,)
        strategy_names = [
            strategy.name if isinstance(strategy, ShardingStrategy) else str(strategy)
            for strategy in strategies
        ]
        for name in strategy_names:
            if name not in STRATEGIES:
                raise SimulationError(
                    f"unknown sharding strategy {name!r}; available: "
                    f"{', '.join(sorted(STRATEGIES))}"
                )
        update_labels = [_OFF if update is None else update.label() for update in updates]
        # Points are keyed by shard count, strategy name, cache label and
        # update label; two entries sharing one would silently collapse onto
        # one point.
        for kind, labels in (
            ("shard counts", shard_counts),
            ("sharding strategies", strategy_names),
            ("caches", cache_labels),
            ("update streams", update_labels),
        ):
            if len(set(labels)) != len(labels):
                raise SimulationError(f"{kind} must be distinct, got {labels}")
        fleets = [
            (
                (shards, strategy_name, cache_label, label),
                FleetSpec(
                    batching=batching,
                    shards=shards,
                    strategy=strategy,
                    cache=cache,
                    updates=update,
                ),
            )
            for shards in shard_counts
            for strategy_name, strategy in zip(strategy_names, strategies)
            for cache_label, cache in zip(cache_labels, caches)
            for label, update in zip(update_labels, updates)
        ]
        for name in self.backend_names:
            fleets[0][1].check(name, workloads)  # every point's fleet is sharded
        points = [
            ((name, workload.name, *coords), None, spec, model, workload)
            for name in self.backend_names
            for workload in workloads
            for coords, spec in fleets
        ]
        result = ExperimentResult(
            self.system,
            _SHARDING_AXES,
            _SHARDING_COLUMNS,
            defaults={"strategy": "table", "cache": _OFF, "updates": _OFF},
        )
        return self._serve_points(result, points, duration_s, num_requests, seed)

    def _serve_points(
        self, result, points, duration_s, num_requests, seed, faults=None
    ) -> ExperimentResult:
        """Serve ``(key, group, fleet, model, workload)`` points into ``result``.

        Points with one ``group`` token (``None``: a fleet of its own) share
        one fleet, which replays their workloads in serial order as one
        :class:`~repro.experiment.executor.FleetTask`.  Tasks run through
        :class:`~repro.experiment.executor.GridExecutor` (in-process at
        ``jobs=1``), and every report lands under its key in point order.
        """
        from repro.experiment.executor import FleetTask, GridExecutor, _run_fleet_task

        groups: Dict[object, List[int]] = {}
        for position, (_, group, _, _, _) in enumerate(points):
            groups.setdefault(position if group is None else group, []).append(position)
        members = list(groups.values())
        tasks = []
        for positions in members:
            key, _, fleet, model, _ = points[positions[0]]
            workloads = tuple(points[position][4] for position in positions)
            tasks.append(
                FleetTask(
                    self.system, fleet, key[0], model, workloads,
                    duration_s, num_requests, seed, faults,
                )
            )
        done = 0

        def on_task(index: int, reports) -> None:
            nonlocal done
            for position in members[index]:
                done += 1
                if self._progress is not None:
                    coordinates = " ".join(str(c) for c in points[position][0])
                    self._progress(f"[{done}/{len(points)}] {coordinates} served")

        reports: List[object] = [None] * len(points)
        task_reports = GridExecutor(self._jobs).map(_run_fleet_task, tasks, on_result=on_task)
        for positions, served in zip(members, task_reports):
            for position, report in zip(positions, served):
                reports[position] = report
        for (key, *_), report in zip(points, reports):
            result.add(key, report)
        return result

    def plan_capacity(
        self,
        sla_s: float,
        target_attainment: float = 0.99,
        model: Optional[DLRMConfig] = None,
        max_replicas: int = 64,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        batching=None,
        dispatcher=None,
        seed: int = 0,
    ) -> Dict[str, "CapacityPlan"]:
        """Search the minimal fleet per backend meeting a p99 SLA target.

        Runs a :class:`~repro.serving.planner.CapacityPlanner` over the
        experiment's backends for every selected workload and returns
        ``{workload name: CapacityPlan}``.  Single-model planning only: the
        planned model is ``model``, or the experiment's model axis when it
        holds exactly one entry.  Requires :meth:`workloads`.
        """
        workloads = self._require_workloads("plan_capacity")
        if model is None:
            if len(self._models) != 1:
                raise SimulationError(
                    f"capacity planning needs one model; the grid holds "
                    f"{len(self._models)} — pass model=..."
                )
            model = self._models[0]
        from repro.serving.planner import CapacityPlanner

        planner = CapacityPlanner(
            self.system,
            sla_s=sla_s,
            target_attainment=target_attainment,
            max_replicas=max_replicas,
            batching=batching,
            dispatcher=dispatcher,
            seed=seed,
            jobs=self._jobs,
        )
        return {
            workload.name: planner.plan(
                workload,
                model,
                backends=self.backend_names,
                duration_s=duration_s,
                num_requests=num_requests,
            )
            for workload in workloads
        }


class VariantSweep:
    """A grid over synthesized model variants, addressable by sweep value.

    The lookup sweeps (Figures 7b/13b) and the sensitivity studies all
    follow one pattern: synthesize one model variant per sweep value, run a
    backend grid over the variants, then read results back per value.  This
    helper owns that pattern — callers provide ``{sweep value: model}`` and
    query ``result(value, backend, batch_size)``.  The grid runs through
    :class:`Experiment`, so variants share the process-wide result cache.
    """

    def __init__(
        self,
        system: SystemConfig,
        backends: Sequence[str],
        variants,
        batch_sizes: Iterable[int],
        cache=_USE_DEFAULT_CACHE,
    ):
        self.variants: Dict[object, DLRMConfig] = dict(variants)
        if not self.variants:
            raise SimulationError("a variant sweep needs at least one variant")
        self.grid = (
            Experiment(system, cache=cache)
            .backends(*backends)
            .models(tuple(self.variants.values()))
            .batch_sizes(tuple(batch_sizes))
            .run()
        )

    def model(self, value) -> DLRMConfig:
        """The synthesized model variant of one sweep value."""
        return self.variants[value]

    def result(self, value, backend: str, batch_size: int) -> InferenceResult:
        """The inference result of one (sweep value, backend, batch) point."""
        return self.grid.get(backend, self.variants[value].name, batch_size)
