"""Declarative experiment grids over registered backends.

:class:`Experiment` is the single entry point for "run these backends over
these models at these batch sizes": the figure functions, the sensitivity
sweeps, the benchmarks, the CLI and the examples all build their grids here
instead of constructing runners by hand.  Results come back as a queryable
:class:`ExperimentResult`, and every design point is memoized in a shared
:class:`~repro.experiment.cache.ResultCache` so regenerating all paper
figures computes each ``(backend, model, batch, system)`` point exactly
once.

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

#: Key identifying one experiment point: (backend name, model name, batch size).
ExperimentKey = Tuple[str, str, int]

#: A value extractor for pivots: attribute/property name or callable.
ValueSpec = Union[str, Callable[[InferenceResult], float]]

#: Sentinel distinguishing "use the process default cache" from "no cache".
_USE_DEFAULT_CACHE = object()


def _extract(result: InferenceResult, value: ValueSpec) -> float:
    if callable(value):
        return value(result)
    attr = getattr(result, value)
    return attr


class ExperimentResult:
    """All inference results of one experiment grid, queryable by key.

    Lookups accept canonical backend names, their aliases, *and* the paper's
    design-point labels, so ``get("centaur", ...)`` and
    ``get("Centaur", ...)`` address the same point.
    """

    def __init__(self, system: SystemConfig):
        self.system = system
        self._results: Dict[ExperimentKey, InferenceResult] = {}

    # ------------------------------------------------------------------
    def add(self, backend_name: str, result: InferenceResult) -> None:
        """Record one design point under its canonical backend name."""
        key = (backend_name, result.model_name, result.batch_size)
        self._results[key] = result

    def _backend_key(self, backend: str) -> str:
        try:
            return canonical_backend_name(backend)
        except ConfigurationError:
            # Results from since-unregistered (ad-hoc) backends stay
            # addressable by their stored key; anything else is a typo and
            # must fail loudly rather than match nothing.
            stored = {key for key, _, _ in self._results}
            if backend in stored:
                return backend
            raise ConfigurationError(
                f"unknown backend {backend!r}; this grid holds: "
                f"{', '.join(sorted(stored)) or '(empty)'}"
            )

    def get(self, backend: str, model_name: str, batch_size: int) -> InferenceResult:
        """The result of one (backend, model, batch) point."""
        key = (self._backend_key(backend), model_name, int(batch_size))
        if key not in self._results:
            raise KeyError(f"no experiment result for {key}")
        return self._results[key]

    def filter(
        self,
        backend: Optional[str] = None,
        model_name: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> List[InferenceResult]:
        """All results matching the given coordinates, in insertion order."""
        backend_key = self._backend_key(backend) if backend is not None else None
        matches = []
        for (b, m, s), result in self._results.items():
            if backend_key is not None and b != backend_key:
                continue
            if model_name is not None and m != model_name:
                continue
            if batch_size is not None and s != int(batch_size):
                continue
            matches.append(result)
        return matches

    # ------------------------------------------------------------------
    def backends(self) -> List[str]:
        """Canonical backend names present, in insertion order."""
        seen: List[str] = []
        for backend, _, _ in self._results:
            if backend not in seen:
                seen.append(backend)
        return seen

    def model_names(self) -> List[str]:
        """Model names present, in insertion order."""
        seen: List[str] = []
        for _, model_name, _ in self._results:
            if model_name not in seen:
                seen.append(model_name)
        return seen

    def batch_sizes(self) -> List[int]:
        """Batch sizes present, sorted."""
        return sorted({batch for _, _, batch in self._results})

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self):
        return iter(self._results.items())

    # ------------------------------------------------------------------
    def pivot(
        self,
        value: ValueSpec = "latency_seconds",
        backend: Optional[str] = None,
    ) -> Dict[object, Dict[int, float]]:
        """Model x batch-size table of one metric.

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
        backend_key = self._backend_key(backend) if backend is not None else None
        multi_backend = backend is None and len(self.backends()) > 1
        table: Dict[object, Dict[int, float]] = {}
        for (b, model_name, batch), result in self._results.items():
            if backend_key is not None and b != backend_key:
                continue
            row_key = (b, model_name) if multi_backend else model_name
            table.setdefault(row_key, {})[batch] = _extract(result, value)
        return table

    def to_dict(self) -> Dict[str, object]:
        """Serialize the whole grid (JSON-compatible)."""
        return {
            "system_fingerprint": system_fingerprint(self.system),
            "results": [
                {"backend": backend, "result": result.to_dict()}
                for (backend, _, _), result in self._results.items()
            ],
        }

    def to_csv(self) -> str:
        """Render the grid as CSV (one row per design point)."""
        stages: List[str] = []
        for result in self._results.values():
            for stage in result.breakdown.stages:
                if stage not in stages:
                    stages.append(stage)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            [
                "backend",
                "design_point",
                "model",
                "batch_size",
                "latency_s",
                "throughput_sps",
                "power_w",
                "energy_j",
            ]
            + [f"{stage.lower()}_s" for stage in stages]
        )
        for (backend, _, _), result in self._results.items():
            writer.writerow(
                [
                    backend,
                    result.design_point,
                    result.model_name,
                    result.batch_size,
                    repr(result.latency_seconds),
                    repr(result.throughput_samples_per_second),
                    repr(result.power_watts),
                    repr(result.energy_joules),
                ]
                + [repr(result.breakdown.get(stage)) for stage in stages]
            )
        return buffer.getvalue()

    def to_sweep_result(self):
        """Legacy view keyed by design-point label (``SweepResult``)."""
        from repro.analysis.sweep import SweepResult

        sweep = SweepResult()
        for result in self._results.values():
            sweep.add(result)
        return sweep


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
        """Select backends by registry name/alias (order preserved)."""
        if len(names) == 1 and not isinstance(names[0], str):
            names = tuple(names[0])  # accept a single iterable, too
        canonical = tuple(canonical_backend_name(name) for name in names)
        if not canonical:
            raise SimulationError("an experiment needs at least one backend")
        self._backend_names = canonical
        return self

    def models(self, *models) -> "Experiment":
        """Select the model configurations of the grid.

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
        self._models = tuple(models)
        return self

    def batch_sizes(self, *sizes) -> "Experiment":
        """Select the input batch sizes of the grid."""
        if len(sizes) == 1 and isinstance(sizes[0], (list, tuple)):
            sizes = tuple(sizes[0])
        if not sizes:
            raise SimulationError("an experiment needs at least one batch size")
        for size in sizes:
            if int(size) <= 0:
                raise SimulationError(f"batch sizes must be positive, got {size}")
        self._batch_sizes = tuple(int(size) for size in sizes)
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
        names = list(dict.fromkeys(self.backend_names))
        return [
            (name, model, batch_size)
            for model in self._models
            for batch_size in self._batch_sizes
            for name in names
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
        outcome = ExperimentResult(self.system)
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
            outcome.add(name, result)
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
        outcome = ExperimentResult(self.system)
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
                    outcome.add(name, result)
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
            outcome.add(name, result)
            if status == "cached":
                emit(name, model, batch_size, "cached")
        return outcome

    def serve(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        batching=None,
        dispatcher=None,
        replicas: int = 1,
        seed: int = 0,
    ):
        """Run the serving grid: backends x workloads (x models).

        Requires :meth:`workloads` to have been called.  Every point is
        capability-gated against the backend registry first; single-model
        workloads fan out over the experiment's model axis while workloads
        carrying a :class:`~repro.workloads.mix.TrafficMix` serve their own
        blend.  Returns a
        :class:`~repro.experiment.serving.ServingExperimentResult`.
        """
        if not self._workloads:
            raise SimulationError(
                "no workloads selected; call .workloads(...) before .serve()"
            )
        from repro.experiment.serving import serve_grid

        return serve_grid(
            self.system,
            self.backend_names,
            self._workloads,
            self._models,
            duration_s=duration_s,
            num_requests=num_requests,
            batching=batching,
            dispatcher=dispatcher,
            replicas=replicas,
            seed=seed,
            jobs=self._jobs,
            progress=self._progress,
        )

    def autoscale(
        self,
        policy,
        min_replicas: int = 1,
        max_replicas: int = 8,
        control_interval_s: float = 10e-3,
        warmup_s: Optional[float] = None,
        idle_power_w: float = 0.0,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        batching=None,
        dispatcher=None,
        seed: int = 0,
    ):
        """Run the serving grid on elastic fleets driven by ``policy``.

        Like :meth:`serve` but every (backend, workload) point is served by
        an :class:`~repro.serving.autoscale.AutoscalingCluster` breathing
        between ``min_replicas`` and ``max_replicas``; reports carry the
        run's :class:`~repro.serving.cluster.AutoscaleReport` (replica-hour
        and energy accounting).  ``warmup_s=None`` uses each backend's
        registered provisioning-delay hint.  Requires :meth:`workloads`.
        """
        if not self._workloads:
            raise SimulationError(
                "no workloads selected; call .workloads(...) before .autoscale()"
            )
        from repro.experiment.serving import autoscale_grid

        return autoscale_grid(
            self.system,
            self.backend_names,
            self._workloads,
            self._models,
            policy,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            control_interval_s=control_interval_s,
            warmup_s=warmup_s,
            idle_power_w=idle_power_w,
            duration_s=duration_s,
            num_requests=num_requests,
            batching=batching,
            dispatcher=dispatcher,
            seed=seed,
            jobs=self._jobs,
            progress=self._progress,
        )

    def chaos(
        self,
        faults,
        policy=None,
        min_replicas: int = 1,
        max_replicas: int = 8,
        initial_replicas: Optional[int] = None,
        control_interval_s: float = 10e-3,
        warmup_s: Optional[float] = None,
        idle_power_w: float = 0.0,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        batching=None,
        dispatcher=None,
        seed: int = 0,
    ):
        """Run the serving grid under a deterministic fault schedule.

        Like :meth:`autoscale` but every (backend, workload) fleet has
        ``faults`` — a :class:`~repro.chaos.faults.FaultSchedule` or a
        compact spec string like ``"crash:at=0.1,restart=0.05"`` — injected
        into the run, so each report carries an
        :class:`~repro.chaos.report.IncidentReport` measuring SLA
        attainment through the incidents and the time-to-recover.
        ``policy=None`` perturbs a static fleet; with a policy the
        autoscaler and the faults compose.  Requires :meth:`workloads`.
        """
        if not self._workloads:
            raise SimulationError(
                "no workloads selected; call .workloads(...) before .chaos()"
            )
        from repro.experiment.serving import chaos_grid

        return chaos_grid(
            self.system,
            self.backend_names,
            self._workloads,
            self._models,
            faults,
            policy=policy,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            initial_replicas=initial_replicas,
            control_interval_s=control_interval_s,
            warmup_s=warmup_s,
            idle_power_w=idle_power_w,
            duration_s=duration_s,
            num_requests=num_requests,
            batching=batching,
            dispatcher=dispatcher,
            seed=seed,
            jobs=self._jobs,
            progress=self._progress,
        )

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
    ):
        """Run the sharded-serving grid: shards x strategy x cache x updates.

        Every (backend, workload) point is served by a
        :class:`~repro.serving.sharded.ShardedReplicaGroup` at each shard
        count / placement strategy / hot-row cache configuration, after
        capability gating (workload support and
        ``BackendCapabilities.supports_sharding``).  Sharded serving is
        single-model: the partitioned model is ``model``, or the
        experiment's model axis when it holds exactly one entry.  Returns
        a :class:`~repro.experiment.sharding.ShardingExperimentResult`.
        """
        if not self._workloads:
            raise SimulationError(
                "no workloads selected; call .workloads(...) before .shard()"
            )
        if model is None:
            if len(self._models) != 1:
                raise SimulationError(
                    f"sharded serving partitions one model; the grid holds "
                    f"{len(self._models)} — pass model=..."
                )
            model = self._models[0]
        from repro.experiment.sharding import shard_grid

        return shard_grid(
            self.system,
            self.backend_names,
            self._workloads,
            model,
            shard_counts=shard_counts,
            strategies=strategies,
            caches=caches,
            updates=updates,
            duration_s=duration_s,
            num_requests=num_requests,
            batching=batching,
            seed=seed,
            jobs=self._jobs,
            progress=self._progress,
        )

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
        if not self._workloads:
            raise SimulationError(
                "no workloads selected; call .workloads(...) before .plan_capacity()"
            )
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
            for workload in self._workloads
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


def run_grid(
    system: SystemConfig,
    backends: Sequence[str],
    models: Iterable[DLRMConfig],
    batch_sizes: Iterable[int],
    cache=_USE_DEFAULT_CACHE,
) -> ExperimentResult:
    """One-call convenience wrapper around the :class:`Experiment` builder."""
    experiment = Experiment(system, cache=cache).backends(*backends)
    return experiment.models(tuple(models)).batch_sizes(tuple(batch_sizes)).run()
