"""Serial-vs-parallel equivalence for GridExecutor-backed grids.

The contract under test (see :mod:`repro.experiment.executor`): for every
grid flavour, ``jobs=N`` produces the same points in the same key order,
each point pickling byte-identically to its serial twin, and the rendered
CSV matching byte for byte.  The equivalence matrix runs each grid twice
from fresh objects so nothing leaks between settings through shared state.
"""

import os
import pickle
import threading
import time

import pytest

from repro.backends import get_backend
from repro.chaos import FaultSchedule, ReplicaCrash
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.errors import SimulationError
from repro.experiment import Experiment, GridExecutor, ResultCache, resolve_jobs
from repro.experiment.executor import BatchChunk, _run_batch_chunk, chunk_evenly
from repro.serving import FleetSpec
from repro.serving.planner import CapacityPlanner
from repro.sharding import CacheConfig
from repro.workloads import (
    ConstantRateArrivals,
    PoissonArrivals,
    TrafficMix,
    Workload,
)
from repro.workloads.traces import ZipfianTrace

JOBS = [2, 4]

STEADY = Workload(arrivals=ConstantRateArrivals(rate_qps=20_000.0), name="steady")
MIX = Workload(
    arrivals=PoissonArrivals(rate_qps=10_000.0),
    mix=TrafficMix.of((DLRM1, 0.5), (DLRM2, 0.5)),
    name="blend",
)
ZIPF = Workload(
    arrivals=PoissonArrivals(rate_qps=20_000.0),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf",
)
LRU = CacheConfig(policy="lru", capacity_rows=2_048)
CRASH = FaultSchedule(
    [ReplicaCrash(at_s=0.003, restart_after_s=0.003)], sla_s=5e-3
)


def signature(result):
    """(key order, per-point pickles, CSV) — the byte-identity contract.

    Whole-container pickles are deliberately *not* compared: serial runs
    share equal strings/containers across points by identity while
    parallel runs split that sharing at task boundaries, so the container
    graphs differ even though every individual point is byte-identical.
    """
    keys = [key for key, _ in result]
    points = [pickle.dumps(point) for _, point in result]
    return keys, points, result.to_csv()


def _square(value):
    return value * value


def _exit_on_negative(value):
    """Square ``value``; a negative one kills the worker, a float sleeps first."""
    if value < 0:
        os._exit(1)
    if isinstance(value, float):
        time.sleep(value)
    return value * value


class TestResolveJobs:
    def test_one_is_serial(self):
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            resolve_jobs(-2)


class TestChunkEvenly:
    def test_balanced_and_order_preserving(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [item for chunk in chunks for item in chunk] == list(range(10))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 8) == [[1], [2]]
        assert chunk_evenly([], 4) == []


class TestGridExecutorMap:
    def test_serial_path_runs_in_process(self):
        seen = []
        out = GridExecutor(1).map(
            _square, [3, 1, 2], on_result=lambda i, r: seen.append((i, r))
        )
        assert out == [9, 1, 4]
        assert seen == [(0, 9), (1, 1), (2, 4)]

    def test_parallel_results_come_back_in_submission_order(self):
        payloads = list(range(7))
        seen = []
        out = GridExecutor(2).map(
            _square, payloads, on_result=lambda i, r: seen.append(i)
        )
        assert out == [_square(p) for p in payloads]
        assert sorted(seen) == list(range(7))

    @pytest.mark.parametrize(
        "payloads, culprit",
        [
            ([1, 2, -3, 4], r"running payload 2 \(-3\) of 4"),
            # Payload 0 is still running when its pool breaks, so both are
            # in flight; re-running each alone singles out payload 1.
            ([0.5, -1], r"running payload 1 \(-1\) of 2"),
        ],
    )
    def test_dead_worker_names_its_payload(self, payloads, culprit):
        # A worker exiting abruptly breaks the whole pool; the error names
        # the payload that killed it, not the bare pool error.
        with pytest.raises(SimulationError, match=culprit):
            GridExecutor(2).map(_exit_on_negative, payloads)


class TestBatchEquivalence:
    def build(self, jobs):
        cache = ResultCache()
        result = (
            Experiment(HARPV2_SYSTEM, cache=cache, jobs=jobs)
            .backends("cpu", "centaur")
            .models(DLRM1, DLRM2)
            .batch_sizes(8, 64)
            .run()
        )
        return result, cache

    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, jobs):
        serial, serial_cache = self.build(1)
        parallel, parallel_cache = self.build(jobs)
        assert signature(parallel) == signature(serial)
        assert parallel.to_dict() == serial.to_dict()
        # "Priced exactly once" holds across the whole pool, and the
        # hit/miss counters emulate the serial loop exactly.
        assert parallel_cache.max_compute_count() == 1
        assert parallel_cache.hits == serial_cache.hits
        assert parallel_cache.misses == serial_cache.misses

    def test_warm_cache_rerun_is_all_hits(self):
        _, cache = self.build(2)
        misses_before = cache.misses
        rerun = (
            Experiment(HARPV2_SYSTEM, cache=cache, jobs=2)
            .backends("cpu", "centaur")
            .models(DLRM1, DLRM2)
            .batch_sizes(8, 64)
            .run()
        )
        assert cache.misses == misses_before
        assert cache.max_compute_count() == 1
        assert len(rerun) == 8

    @pytest.mark.parametrize("jobs", JOBS)
    def test_uncached_grid_matches_serial(self, jobs):
        def run(jobs):
            return (
                Experiment(HARPV2_SYSTEM, cache=None, jobs=jobs)
                .backends("cpu", "centaur")
                .models(DLRM1)
                .batch_sizes(8, 16)
                .run()
            )

        assert signature(run(jobs)) == signature(run(1))


class TestServeEquivalence:
    def build(self, jobs):
        return (
            Experiment(HARPV2_SYSTEM, jobs=jobs)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(STEADY, MIX)
            .serve(num_requests=250, seed=1)
        )

    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, jobs):
        assert signature(self.build(jobs)) == signature(self.build(1))


class TestShardEquivalence:
    def build(self, jobs):
        return (
            Experiment(HARPV2_SYSTEM, jobs=jobs)
            .backends("centaur")
            .models(DLRM2)
            .workloads(ZIPF)
            .shard(
                shard_counts=(1, 2),
                strategies=("table", "row"),
                caches=(None, LRU),
                num_requests=200,
                seed=1,
            )
        )

    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, jobs):
        assert signature(self.build(jobs)) == signature(self.build(1))


class TestChaosEquivalence:
    def build(self, jobs):
        return (
            Experiment(HARPV2_SYSTEM, jobs=jobs)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(STEADY)
            .serve(
                FleetSpec(replicas=2, max_replicas=3),
                faults=CRASH,
                num_requests=250,
                seed=2,
            )
        )

    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, jobs):
        serial = self.build(1)
        parallel = self.build(jobs)
        assert signature(parallel) == signature(serial)
        for (key, report), (_, twin) in zip(serial, parallel):
            assert report.incidents is not None
            assert report.incidents == twin.incidents


class TestPlannerEquivalence:
    def plan(self, jobs):
        planner = CapacityPlanner(
            HARPV2_SYSTEM, sla_s=5e-3, max_replicas=4, jobs=jobs
        )
        return planner.plan(
            STEADY, DLRM2, backends=("cpu", "centaur"), num_requests=200
        )

    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, jobs):
        assert self.plan(jobs) == self.plan(1)


class TestProgress:
    def test_batch_progress_multiset_matches_serial(self):
        def run(jobs, cache):
            lines = []
            result = (
                Experiment(HARPV2_SYSTEM, cache=cache, jobs=jobs)
                .backends("cpu", "centaur")
                .models(DLRM1)
                .batch_sizes(8, 8, 16)  # a repeated batch size is selected once
                .progress(lines.append)
                .run()
            )
            return result, lines

        serial, serial_lines = run(1, ResultCache())
        parallel, parallel_lines = run(2, ResultCache())
        assert signature(parallel) == signature(serial)
        assert len(parallel_lines) == len(serial_lines) == 4
        # The [n/total] counter follows completion order, which differs
        # across settings; the per-point bodies must not.
        bodies = lambda lines: sorted(line.split("] ", 1)[1] for line in lines)
        assert bodies(parallel_lines) == bodies(serial_lines)
        assert all(line.endswith("computed") for line in serial_lines)

        # A second run on the same cache reports every point cached.
        cache = ResultCache()
        run(1, cache)
        _, cached_lines = run(2, cache)
        assert len(cached_lines) == 4
        assert all(line.endswith("cached") for line in cached_lines)

    def test_serve_progress_counts_points(self):
        lines = []
        grid = (
            Experiment(HARPV2_SYSTEM, jobs=2)
            .backends("centaur")
            .models(DLRM2)
            .workloads(STEADY, MIX)
            .progress(lines.append)
            .serve(num_requests=200, seed=0)
        )
        assert len(lines) == len(grid) == 2
        assert all("served" in line for line in lines)


class TestCacheMerge:
    def test_merge_adopts_entries_and_sums_counters(self):
        backend = get_backend("centaur", HARPV2_SYSTEM)
        parent = ResultCache()
        parent.get_or_compute(backend, DLRM1, 8, HARPV2_SYSTEM)
        points = [("centaur", DLRM1, 16), ("centaur", DLRM2, 8), ("centaur", DLRM2, 16)]
        workers = [
            _run_batch_chunk(BatchChunk(HARPV2_SYSTEM, tuple(chunk)))
            for chunk in chunk_evenly(points, 2)
        ]
        for worker in workers:
            # Worker caches cross a process boundary in real runs.
            parent.merge(pickle.loads(pickle.dumps(worker)))
        assert len(parent) == 4
        assert parent.max_compute_count() == 1
        assert parent.misses == 4

    def test_merge_never_changes_parent_results(self):
        backend = get_backend("centaur", HARPV2_SYSTEM)
        parent = ResultCache()
        mine = parent.get_or_compute(backend, DLRM1, 8, HARPV2_SYSTEM)
        worker = _run_batch_chunk(
            BatchChunk(HARPV2_SYSTEM, (("centaur", DLRM1, 8),))
        )
        parent.merge(worker)
        # First cache to price a key wins; the parent's object survives.
        assert parent.peek(parent.key("centaur", DLRM1, 8, HARPV2_SYSTEM)) is mine
        # Duplicated work across caches still surfaces in the counters.
        assert parent.max_compute_count() == 2

    def test_worker_cache_save_load_round_trip(self, tmp_path):
        worker = _run_batch_chunk(
            BatchChunk(HARPV2_SYSTEM, (("centaur", DLRM1, 8), ("cpu", DLRM1, 8)))
        )
        path = tmp_path / "cache.json"
        worker.save(path)
        loaded = ResultCache.load(path)
        assert len(loaded) == len(worker) == 2
        for key, count in worker.compute_counts().items():
            assert count == 1
            assert loaded.peek(key).to_dict() == worker.peek(key).to_dict()


class _SlowBackend:
    """Counts run() calls and sleeps inside, widening any check/compute race."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.name = inner.name

    def run(self, model, batch_size):
        self.calls += 1
        import time

        time.sleep(0.01)
        return self.inner.run(model, batch_size)


class TestThreadSafety:
    def test_threads_hammering_one_key_compute_it_once(self):
        cache = ResultCache()
        backend = _SlowBackend(get_backend("centaur", HARPV2_SYSTEM))
        results = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            results.append(
                cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
            )

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.calls == 1
        assert cache.max_compute_count() == 1
        assert cache.hits == 7 and cache.misses == 1
        assert all(result is results[0] for result in results)
