"""Process-pool fan-out for experiment grids.

Every grid point in this repo is an independent, seed-deterministic
simulation — a pure function of picklable inputs (backend *name*, model /
system configs, workload / shard / fault specs).  :class:`GridExecutor`
exploits that: it fans task payloads out over a
:class:`concurrent.futures.ProcessPoolExecutor` and hands results back in
**submission order**, so callers that enumerate their grid in the serial
order get byte-identical products at any ``jobs=`` setting.

The module-level ``_run_*`` functions are the worker entry points (they
must be importable by name so payloads stay spawn-safe).  Workers resolve
backends through the registry — builtin backends self-register on import
in every process; ad-hoc registrations made only in the parent cannot be
resolved by a worker, which is why ``jobs`` defaults to 1 (the serial
path) everywhere.

Determinism contract (asserted by the equivalence-matrix tests): for each
grid flavour the tasks partition points exactly the way fleets share
state — batch points are pure per-point functions; serving points share a
fleet per (backend, default model) group, so a whole group is one
:class:`FleetTask` replayed in serial order; shard points build a fresh
group each, so they ship one per task.  ``jobs=1`` runs the same tasks
in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import reprlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.registry import get_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.experiment.cache import ResultCache
from repro.serving.fleet import FleetSpec
from repro.workloads.workload import Workload


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``jobs=`` setting: ``0`` means one worker per CPU."""
    jobs = int(jobs)
    if jobs < 0:
        raise SimulationError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context(start_method: Optional[str]):
    """The multiprocessing context grids fan out with.

    ``fork`` (where the platform offers it) starts a worker in
    milliseconds; ``spawn`` pays a fresh-interpreter import (~1.5 s of
    ``repro`` imports) per worker, which would erase the speedup on small
    grids.  Payloads are spawn-safe either way — workers never rely on
    inherited state (each computes into a fresh local cache) — so forcing
    ``start_method="spawn"`` changes wall-clock, never results.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method)


#: Progress callback: (payload index, result) — completion order in
#: parallel mode, submission order in serial mode.
OnResult = Callable[[int, object], None]

#: Per-payload progress flags a pool's workers share with the parent.
_RUNNING, _DONE = 1, 2
_progress = None


def _track_progress(flags) -> None:
    """Worker initializer: keep the shared progress flags."""
    global _progress
    _progress = flags


def _run_tracked(fn, index: int, payload):
    """Worker entry: run one payload, flagging it running, then done."""
    _progress[index] = _RUNNING
    result = fn(payload)
    _progress[index] = _DONE
    return result


def _describe_payload(payload) -> str:
    """A payload's grid point, for error messages."""
    describe = getattr(payload, "describe", None)
    return describe() if callable(describe) else reprlib.repr(payload)


class GridExecutor:
    """Maps a worker function over picklable payloads, jobs at a time.

    ``jobs=1`` runs the plain serial loop in-process (no pool, no pickling
    — exactly the pre-parallel code path).  Results always come back in
    submission order regardless of completion order, which is what lets
    grid products stay byte-identical across ``jobs`` settings.
    """

    def __init__(self, jobs: int = 1, start_method: Optional[str] = None):
        self.jobs = resolve_jobs(jobs)
        self.start_method = start_method

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def map(
        self,
        fn: Callable[[object], object],
        payloads: Sequence[object],
        on_result: Optional[OnResult] = None,
    ) -> List[object]:
        payloads = list(payloads)
        if not payloads:
            return []
        if self.jobs == 1 or len(payloads) == 1:
            results: List[object] = []
            for index, payload in enumerate(payloads):
                result = fn(payload)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
            return results
        slots: List[object] = [None] * len(payloads)
        context = _pool_context(self.start_method)
        progress = context.RawArray("b", len(payloads))
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(payloads)),
                mp_context=context,
                initializer=_track_progress,
                initargs=(progress,),
            ) as pool:
                pending = {
                    pool.submit(_run_tracked, fn, index, payload): index
                    for index, payload in enumerate(payloads)
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        slots[index] = future.result()
                        if on_result is not None:
                            on_result(index, slots[index])
        except BrokenProcessPool as error:
            raise self._dead_worker(fn, payloads, progress) from error
        return slots

    @staticmethod
    def _dead_worker(fn, payloads, progress) -> SimulationError:
        """Name the payload whose worker process died.

        A dying worker breaks the whole pool, and the pool stops every
        other worker mid-payload.  With one payload in flight that is the
        culprit; otherwise each in-flight payload is re-run alone, in a
        fresh spawned worker, until one kills its worker again.
        """
        running = [index for index, flag in enumerate(progress) if flag == _RUNNING]
        culprits = running
        if len(running) > 1:
            spawn = multiprocessing.get_context("spawn")
            for index in running:
                with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as probe:
                    future = probe.submit(fn, payloads[index])
                    if isinstance(future.exception(), BrokenProcessPool):
                        culprits = [index]
                        break
        points = "; ".join(
            f"payload {index} ({_describe_payload(payloads[index])})" for index in culprits
        )
        return SimulationError(
            "a grid worker process exited abruptly while running "
            f"{points or 'an unidentified payload'} of {len(payloads)}"
        )


# ----------------------------------------------------------------------
# Batch grids (Experiment.run)


@dataclass(frozen=True)
class BatchChunk:
    """A slice of batch-grid points one worker prices.

    ``memoize=True`` computes through a fresh worker-local
    :class:`ResultCache` and returns it for the parent to
    :meth:`~ResultCache.merge`; ``memoize=False`` mirrors the uncached
    serial path (every point runs the device model, duplicates included).
    """

    system: SystemConfig
    points: Tuple[Tuple[str, DLRMConfig, int], ...]  # (backend, model, batch)
    memoize: bool = True

    def describe(self) -> str:
        (name, model, first), (_, _, last) = self.points[0], self.points[-1]
        return f"{len(self.points)} batch points from {name} {model.name} batch {first} to batch {last}"


def _run_batch_chunk(chunk: BatchChunk):
    backends: Dict[str, object] = {}
    for name, _, _ in chunk.points:
        if name not in backends:
            backends[name] = get_backend(name, chunk.system)
    if chunk.memoize:
        cache = ResultCache()
        for name, model, batch_size in chunk.points:
            cache.get_or_compute(
                backends[name], model, batch_size, chunk.system, backend_name=name
            )
        return cache
    return [
        backends[name].run(model, batch_size)
        for name, model, batch_size in chunk.points
    ]


# ----------------------------------------------------------------------
# Serving grids (Experiment.serve / Experiment.shard)


@dataclass(frozen=True)
class FleetTask:
    """One fleet, built once, replaying its grid points' workloads in order.

    The serving grid shares one fleet per (backend, default model) across
    workloads; shipping the whole group as one task reproduces that reuse
    exactly, which is what keeps ``jobs=N`` reports byte-identical to
    ``jobs=1``.  The sharding grid ships one task per point.
    """

    system: SystemConfig
    fleet: FleetSpec
    backend_name: str
    model: DLRMConfig
    workloads: Tuple[Workload, ...]
    duration_s: Optional[float]
    num_requests: Optional[int]
    seed: int
    faults: object = None  # Optional[FaultSchedule]

    def describe(self) -> str:
        workloads = ", ".join(workload.name for workload in self.workloads)
        return f"{self.backend_name} {self.model.name} [{workloads}]"


def _run_fleet_task(task: FleetTask) -> list:
    simulator = task.fleet.build(task.backend_name, task.model, task.system)
    return [
        simulator.serve_workload(
            workload,
            duration_s=task.duration_s,
            num_requests=task.num_requests,
            seed=task.seed,
            faults=task.faults,
        )
        for workload in task.workloads
    ]


# ----------------------------------------------------------------------
# Capacity planning


@dataclass
class PlanBackendTask:
    """One backend's minimal-fleet search (the search itself is serial)."""

    system: SystemConfig
    sla_s: float
    target_attainment: float
    max_replicas: int
    batching: object
    dispatcher: object
    seed: int
    backend_name: str
    model: DLRMConfig
    workload: Workload
    duration_s: Optional[float]
    num_requests: Optional[int]

    def describe(self) -> str:
        return f"plan {self.backend_name} {self.model.name} {self.workload.name}"


def _run_plan_backend(task: PlanBackendTask):
    from repro.serving.planner import CapacityPlanner

    planner = CapacityPlanner(
        task.system,
        sla_s=task.sla_s,
        target_attainment=task.target_attainment,
        max_replicas=task.max_replicas,
        batching=task.batching,
        dispatcher=task.dispatcher,
        seed=task.seed,
    )
    return planner.plan_backend(
        task.backend_name,
        task.model,
        task.workload,
        duration_s=task.duration_s,
        num_requests=task.num_requests,
    )


def chunk_evenly(items: Sequence, chunks: int) -> List[List]:
    """Split ``items`` into at most ``chunks`` contiguous, balanced runs."""
    items = list(items)
    count = min(max(1, chunks), len(items)) if items else 0
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    out: List[List] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out
