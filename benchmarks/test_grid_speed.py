"""Grid wall-clock trajectory benchmark and parallel-execution perf gate.

Measures wall-clock of three representative experiment grids at
``jobs=1/2/4`` through :class:`repro.experiment.executor.GridExecutor`:

* ``figure`` — the full figure-suite batch grid (108 analytic points).
  Recorded as trajectory only: analytic points cost microseconds, so the
  pool overhead *exceeds* the work and parallelism cannot pay here — the
  measurement documents why ``jobs=1`` stays the default.
* ``serve`` — an event-driven serving grid (three backends, two
  workloads); points group by (backend, model), so three worker tasks.
* ``shard`` — an event-driven sharded-serving grid (eight independent
  points, every point carrying a hot-row cache so per-point cost stays
  even); the parallel workhorse the speedup floors are pinned on.

Each serial measurement carries a machine calibration score (heap
push/pop ops/sec, taken in-process right before the run).  The gate
compares *calibration-normalized* serial throughput of the event-driven
grids against the committed ``BENCH_grid.json`` trajectory, and asserts
CPU-aware speedup floors measured within this run (no cross-machine
normalization needed for a ratio).  Fresh measurements always land in
``benchmarks/BENCH_grid.fresh.json`` (gitignored; uploaded by CI) so the
committed trajectory can be refreshed by copying it.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.config import DLRM2, PAPER_BATCH_SIZES, PAPER_MODELS, HARPV2_SYSTEM
from repro.experiment import Experiment
from repro.sharding import CacheConfig
from repro.utils.tables import TextTable
from repro.workloads import ConstantRateArrivals, PoissonArrivals, Workload
from repro.workloads.traces import ZipfianTrace

REPO_ROOT = pathlib.Path(__file__).parent.parent
#: The committed perf trajectory this suite gates against.
BASELINE_PATH = REPO_ROOT / "BENCH_grid.json"
#: Fresh measurements land here (gitignored; CI uploads it as an artifact).
FRESH_PATH = pathlib.Path(__file__).parent / "BENCH_grid.fresh.json"

#: Allowed calibration-normalized serial-throughput regression.  Wider
#: than the engine gate's 20%: grid wall-clock includes pool fork/pickle
#: overhead, which is noisier than a pure in-process event loop.
TOLERANCE = 0.30

#: Serial grids gated against the committed trajectory (the ``figure``
#: grid is ~20 ms of analytic arithmetic — too short to gate reliably).
GATED_GRIDS = ("serve", "shard")

JOBS_TRAJECTORY = (1, 2, 4)

#: Heap push/pop pairs per calibration pass.  Shorter than the engine
#: gate's single pass but taken best-of-3: on a busy shared machine one
#: long pass can land entirely inside a noisy window, and a bad
#: calibration score corrupts the normalization it exists to provide.
_CALIBRATION_OPS = 100_000
_CALIBRATION_PASSES = 3

STEADY = Workload(arrivals=ConstantRateArrivals(rate_qps=20_000.0), name="steady")
POISSON = Workload(arrivals=PoissonArrivals(rate_qps=15_000.0), name="poisson")
ZIPF = Workload(
    arrivals=PoissonArrivals(rate_qps=20_000.0),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf",
)
LRU = CacheConfig(policy="lru", capacity_rows=2_048)
LFU = CacheConfig(policy="lfu", capacity_rows=2_048)


def calibrate(
    ops: int = _CALIBRATION_OPS, passes: int = _CALIBRATION_PASSES
) -> float:
    """Machine-speed score: best-of-``passes`` heap push/pop ops per second."""
    from heapq import heappop, heappush

    best = 0.0
    for _ in range(passes):
        heap: list = []
        start = time.perf_counter()
        for index in range(ops):
            heappush(heap, (index % 997, index, None))
        while heap:
            heappop(heap)
        best = max(best, ops / (time.perf_counter() - start))
    return best


def _figure_grid(jobs: int):
    # cache=None so every run measures compute, not a warm lookup.
    return (
        Experiment(HARPV2_SYSTEM, cache=None, jobs=jobs)
        .models(PAPER_MODELS)
        .batch_sizes(PAPER_BATCH_SIZES)
        .run()
    )


def _serve_grid(jobs: int):
    return (
        Experiment(HARPV2_SYSTEM, jobs=jobs)
        .backends("cpu", "cpu-gpu", "centaur")
        .models(DLRM2)
        .workloads(STEADY, POISSON)
        .serve(num_requests=20_000, seed=3)
    )


def _shard_grid(jobs: int):
    return (
        Experiment(HARPV2_SYSTEM, jobs=jobs)
        .backends("centaur")
        .models(DLRM2)
        .workloads(ZIPF)
        .shard(
            shard_counts=(2, 4),
            strategies=("table", "row"),
            # Both cached: cache simulation dominates per-point cost, so
            # the eight points cost about the same and the critical path
            # is not skewed by one slow straggler.
            caches=(LRU, LFU),
            num_requests=400,
            seed=1,
        )
    )


GRIDS = {
    "figure": (_figure_grid, 108),
    "serve": (_serve_grid, 6),
    "shard": (_shard_grid, 8),
}


def _measure(grid: str, jobs: int, reps: int) -> dict:
    """Best-of-``reps`` wall-clock of one grid at one jobs setting."""
    build, points = GRIDS[grid]
    calibration = calibrate()
    best = None
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = build(jobs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {
        "grid": grid,
        "jobs": jobs,
        "points": points,
        "seconds": best,
        "points_per_sec": points / best,
        "calibration_ops_per_s": calibration,
        "_result": result,
    }


def _render(rows: list) -> str:
    table = TextTable(
        ["grid", "jobs", "points", "wall-clock (s)", "points/sec", "speedup"],
        title="Grid wall-clock (GridExecutor fan-out)",
    )
    serial = {row["grid"]: row["seconds"] for row in rows if row["jobs"] == 1}
    for row in rows:
        table.add_row(
            [
                row["grid"],
                row["jobs"],
                row["points"],
                f"{row['seconds']:.3f}",
                f"{row['points_per_sec']:.1f}",
                f"{serial[row['grid']] / row['seconds']:.2f}x",
            ]
        )
    return table.render()


def _write_fresh(rows: list) -> None:
    payload = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    FRESH_PATH.write_text(
        json.dumps(
            {"schema": "grid-speed/v1", "cpus": os.cpu_count(), "grids": payload},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def _gate_serial_throughput(rows: list) -> None:
    """Fail on a >TOLERANCE calibration-normalized serial regression."""
    assert BASELINE_PATH.exists(), (
        "BENCH_grid.json is missing from the repo root; the grid perf "
        "gate has no trajectory to compare against"
    )
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    committed = {(g["grid"], g["jobs"]): g for g in baseline["grids"]}
    failures = []
    for row in rows:
        if row["grid"] not in GATED_GRIDS or row["jobs"] != 1:
            continue
        reference = committed.get((row["grid"], 1))
        if reference is None:
            continue
        scale = reference["calibration_ops_per_s"] / row["calibration_ops_per_s"]
        normalized = row["points_per_sec"] * scale
        floor = (1.0 - TOLERANCE) * reference["points_per_sec"]
        # Raw throughput clearing the floor also passes: on a machine at
        # least as fast as the baseline's, normalization can only hurt
        # when the calibration sample decorrelates from the grid run
        # (load spike between the two), and that is noise, not a
        # regression.
        if max(normalized, row["points_per_sec"]) < floor:
            failures.append(
                f"{row['grid']} grid at jobs=1: normalized "
                f"{normalized:.2f} points/s < floor {floor:.2f} "
                f"(committed {reference['points_per_sec']:.2f}, raw "
                f"{row['points_per_sec']:.2f}, calibration scale {scale:.2f})"
            )
    assert not failures, "serial grid throughput regressed >30%:\n" + "\n".join(
        failures
    )


def _gate_speedup(rows: list) -> None:
    """CPU-aware speedup floors on the shard grid, within this run.

    A wall-clock ratio needs no cross-machine normalization; the floor
    only depends on how many cores the runner actually has.
    """
    seconds = {
        (row["grid"], row["jobs"]): row["seconds"] for row in rows
    }
    serial = seconds[("shard", 1)]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        speedup = serial / seconds[("shard", 4)]
        assert speedup >= 2.0, (
            f"shard grid jobs=4 speedup {speedup:.2f}x < 2.0x on a "
            f"{cpus}-CPU runner"
        )
    elif cpus >= 2:
        # Two cores shared with the OS and the parent process leave thin
        # headroom; the real >=2x assertion lives on >=4-CPU runners.
        speedup = serial / min(seconds[("shard", 2)], seconds[("shard", 4)])
        assert speedup >= 1.05, (
            f"shard grid parallel speedup {speedup:.2f}x < 1.05x on a "
            f"{cpus}-CPU runner"
        )
    # Single-CPU runners: nothing to assert — the pool cannot win.


@pytest.mark.perf
def test_grid_speed_trajectory():
    rows = []
    for grid in GRIDS:
        for jobs in JOBS_TRAJECTORY:
            # Every event-grid cell is best-of-2 so one background-load
            # spike cannot flip a speedup ratio either way.
            rows.append(_measure(grid, jobs, 3 if grid == "figure" else 2))
    print()
    print(_render(rows))
    _write_fresh(rows)

    # Byte-identity smoke rides along: the jobs=1 and jobs=4 shard grids
    # measured above must render identically.
    by_key = {(row["grid"], row["jobs"]): row["_result"] for row in rows}
    assert by_key[("shard", 1)].to_csv() == by_key[("shard", 4)].to_csv()
    assert by_key[("serve", 1)].to_csv() == by_key[("serve", 4)].to_csv()

    _gate_serial_throughput(rows)
    _gate_speedup(rows)
