"""Process-pool fan-out for the event-driven experiment grids.

Every serving, sharding and capacity-planning point is an independent,
seed-deterministic event simulation — a pure function of picklable inputs
(backend *name*, model / system configs, workload / shard / fault specs).
:class:`GridExecutor` exploits that: it fans task payloads out over a
:class:`concurrent.futures.ProcessPoolExecutor` and hands results back in
**submission order**, so callers that enumerate their grid in the serial
order get byte-identical products at any ``jobs=`` setting.

Batch grids (:meth:`~repro.experiment.Experiment.run`) never come here: a
design point is an analytic price that costs less than its round trip to a
worker, so they always run in-process.  On a 2-vCPU host a 36,864-point
batch grid took 2.1-2.4 s serially and 2.6-2.9 s over two workers.

:func:`_run_fleet_task` is the serving-grid worker entry point (it must be
importable by name so payloads stay spawn-safe); capacity planning maps a
bound planner method.  Workers resolve backends through the registry,
which registers the builtin backends on its first lookup in every
process; ad-hoc registrations made only in the parent cannot be resolved
by a worker, which is why ``jobs`` defaults to 1 (the serial path)
everywhere.

Determinism contract (asserted by the equivalence-matrix tests): for each
grid flavour the tasks partition points exactly the way fleets share
state — serving points share a fleet per (backend, default model) group,
so a whole group is one :class:`FleetTask` replayed in serial order; shard
points build a fresh group each, so they ship one per task; capacity
plans ship one backend's search per task.  ``jobs=1`` runs the same tasks
in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import reprlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
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


def _pool_context():
    """The multiprocessing context grids fan out with.

    ``fork`` (where the platform offers it) starts a worker in
    milliseconds; ``spawn`` pays a fresh-interpreter import (~1.5 s of
    ``repro`` imports) per worker, which would erase the speedup on small
    grids.  Payloads are spawn-safe either way — workers never rely on
    inherited state — so the start method changes wall-clock, never
    results.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform: take its default
        return multiprocessing.get_context()


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

    def __init__(self, jobs: int = 1):
        self.jobs = resolve_jobs(jobs)

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
        context = _pool_context()
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
