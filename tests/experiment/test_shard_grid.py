"""Tests for the sharded-serving grid (Experiment.shard)."""

import pytest

from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.experiment import Experiment, ExperimentResult
from repro.sharding import CacheConfig
from repro.workloads import ConstantRateArrivals, PoissonArrivals, Workload
from repro.workloads.traces import ZipfianTrace

ZIPF = Workload(
    arrivals=PoissonArrivals(rate_qps=20_000.0),
    trace=ZipfianTrace(alpha=1.05),
    name="zipf",
)
STEADY = Workload(arrivals=ConstantRateArrivals(rate_qps=20_000.0), name="steady")
LRU = CacheConfig(policy="lru", capacity_rows=2_048)


def small_grid(**kwargs):
    defaults = dict(
        shard_counts=(1, 2),
        strategies=("table", "row"),
        caches=(None, LRU),
        num_requests=300,
        seed=1,
    )
    defaults.update(kwargs)
    return (
        Experiment(HARPV2_SYSTEM)
        .backends("centaur")
        .models(DLRM2)
        .workloads(ZIPF)
        .shard(**defaults)
    )


class TestExperimentShard:
    def test_grid_spans_every_axis(self):
        grid = small_grid()
        assert isinstance(grid, ExperimentResult)
        # 1 backend x 1 workload x 2 shard counts x 2 strategies x 2 caches.
        assert len(grid) == 8
        assert grid.axis("shards") == [1, 2]
        for (_, _, shards, _, cache, updates), report in grid:
            assert updates == "off"
            assert report.sharding is not None
            assert report.sharding.num_shards == shards
            assert report.completed_requests == 300
            assert (report.sharding.cache_policy is not None) == (cache != "off")

    def test_get_and_filter(self):
        grid = small_grid()
        report = grid.get("centaur", "zipf", 2, "row", LRU.describe())
        assert report.sharding.cache_policy == "lru"
        assert report.sharding.num_shards == 2
        with pytest.raises(KeyError):
            grid.get("centaur", "zipf", 8, "row")
        cached_points = grid.filter(cache=LRU.describe())
        assert len(cached_points) == 4
        assert all(point.sharding.hit_rate > 0 for point in cached_points)

    def test_backend_lookups_resolve_labels_and_reject_typos(self):
        grid = small_grid(shard_counts=(2,), strategies=("table",), caches=(None,))
        report = grid.get("centaur", "zipf", 2)
        # Design-point labels address the same point, as on the batch grid.
        assert grid.get("Centaur", "zipf", 2) is report
        assert grid.filter(backend="Centaur") == [report]
        # A typo fails loudly rather than matching nothing.
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.filter(backend="centuar")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.get("centuar", "zipf", 2)

    def test_cache_wins_on_the_skewed_trace_across_the_grid(self):
        grid = small_grid(strategies=("row",))
        for shards in (1, 2):
            off = grid.get("centaur", "zipf", shards, "row", "off")
            on = grid.get("centaur", "zipf", shards, "row", LRU.describe())
            assert on.sharding.hit_rate > off.sharding.hit_rate
            assert on.sharding.mean_gather_s < off.sharding.mean_gather_s

    def test_csv_has_one_row_per_point(self):
        grid = small_grid(shard_counts=(2,), strategies=("table",), caches=(None,))
        lines = grid.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(grid)
        assert lines[0].startswith("backend,workload,shards,strategy,cache")

    def test_requires_workloads(self):
        with pytest.raises(SimulationError, match="workloads"):
            Experiment(HARPV2_SYSTEM).backends("centaur").models(DLRM2).shard(
                num_requests=10
            )

    def test_requires_a_single_model(self):
        with pytest.raises(SimulationError, match="one model"):
            (
                Experiment(HARPV2_SYSTEM)
                .backends("centaur")
                .models(DLRM1, DLRM2)
                .workloads(STEADY)
                .shard(num_requests=10)
            )

    def test_unknown_strategy_rejected(self):
        # The grid raises what --shards and make_plan raise.
        with pytest.raises(
            ConfigurationError,
            match="unknown sharding strategy 'mystery'; known: table, row, greedy",
        ):
            small_grid(strategies=("mystery",))

    def test_duplicate_strategy_names_rejected(self):
        from repro.sharding import RowWiseHashSharding

        # Two instances sharing one name would silently collapse onto a
        # single grid point (points are keyed by strategy name).
        with pytest.raises(SimulationError, match="distinct"):
            small_grid(
                strategies=(RowWiseHashSharding(hash_seed=0), RowWiseHashSharding(hash_seed=7))
            )

    def test_duplicate_shard_counts_rejected(self):
        # Points are keyed by shard count; a repeat would be served twice
        # and kept once.
        with pytest.raises(SimulationError, match="shard counts must be distinct"):
            small_grid(shard_counts=(2, 2), strategies=("table",), caches=(None,))

    def test_caches_with_one_label_rejected(self):
        twins = (CacheConfig(capacity_rows=64), CacheConfig(capacity_rows=64))
        with pytest.raises(SimulationError, match="caches must be distinct"):
            small_grid(shard_counts=(2,), strategies=("table",), caches=twins)

    def test_any_registered_backend_shards(self):
        # Capability flags describe a device; they do not gate the grid.
        from repro.backends import BackendCapabilities, register_backend
        from repro.backends.registry import unregister_backend
        from repro.cpu.cpu_runner import CPUOnlyRunner

        register_backend(
            "plain-cpu-test",
            CPUOnlyRunner,
            design_point="PlainCPU",
            capabilities=BackendCapabilities(),
        )
        try:
            grid = (
                Experiment(HARPV2_SYSTEM)
                .backends("plain-cpu-test")
                .models(DLRM2)
                .workloads(STEADY)
                .shard(shard_counts=(2,), strategies=("table",), num_requests=10)
            )
        finally:
            unregister_backend("plain-cpu-test")
        report = grid.get("plain-cpu-test", "steady", 2, "table")
        assert report.completed_requests == 10
        assert report.sharding.num_shards == 2

    def test_updates_axis_spans_the_grid(self):
        from repro.workloads import UpdateProcess

        storm = UpdateProcess(arrivals=10_000, rows_per_update=16, mode="invalidate")
        grid = small_grid(
            shard_counts=(2,),
            strategies=("row",),
            caches=(LRU,),
            updates=(None, storm),
        )
        assert len(grid) == 2
        off = grid.get("centaur", "zipf", 2, "row", LRU.describe())
        on = grid.get(
            "centaur", "zipf", 2, "row", LRU.describe(), storm.label()
        )
        assert off.sharding.update_events == 0
        assert on.sharding.update_events > 0
        assert on.sharding.update_invalidations > 0
        assert len(grid.filter(updates=storm.label())) == 1
        header = grid.to_csv().strip().splitlines()[0]
        assert ",updates," in header
        assert ",update_invalidations," in header

    def test_duplicate_update_labels_rejected(self):
        from repro.workloads import UpdateProcess

        with pytest.raises(SimulationError, match="distinct"):
            small_grid(
                shard_counts=(2,),
                strategies=("row",),
                caches=(LRU,),
                updates=(
                    UpdateProcess(arrivals=1_000, name="same"),
                    UpdateProcess(arrivals=2_000, name="same"),
                ),
            )

    def test_deterministic_across_runs(self):
        first = small_grid(shard_counts=(2,), strategies=("row",), caches=(LRU,))
        second = small_grid(shard_counts=(2,), strategies=(" row".strip(),), caches=(LRU,))
        left = first.get("centaur", "zipf", 2, "row", LRU.describe())
        right = second.get("centaur", "zipf", 2, "row", LRU.describe())
        assert left.latency.samples_s.tolist() == right.latency.samples_s.tolist()
        assert left.sharding == right.sharding
