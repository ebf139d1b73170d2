"""Byte-identity oracle for every grid flavour and every ``repro serve`` shape.

Each grid's ``to_csv()`` and each CLI call's stdout is hashed with SHA-256
and compared with a digest recorded before the grid flavours and the
serving front-ends were merged behind one result type and one fleet
recipe.  The CSVs carry every float at full ``repr`` precision, so a
refactor that reorders a sum, reuses a simulator differently or picks a
different front-end fails here.  Grids are checked serially and across
two worker processes.

``repro serve --profile`` is left out: its engine profile prints host
times.
"""

import contextlib
import hashlib
import io

import pytest

from repro.chaos import FaultSchedule, ReplicaCrash
from repro.cli import main
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.experiment import Experiment, ResultCache, override_default_cache
from repro.serving import FleetSpec, parse_autoscaler_spec
from repro.sharding import CacheConfig
from repro.workloads import ConstantRateArrivals, PoissonArrivals, TrafficMix, Workload
from repro.workloads.traces import ZipfianTrace

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
CRASH = FaultSchedule([ReplicaCrash(at_s=0.003, restart_after_s=0.003)])


def experiment(jobs):
    return Experiment(HARPV2_SYSTEM, cache=ResultCache(), jobs=jobs)


def grid_batch(jobs):
    return (
        experiment(jobs)
        .backends("cpu", "centaur")
        .models(DLRM1, DLRM2)
        .batch_sizes(1, 8, 64)
        .run()
    )


def grid_serve(jobs):
    return (
        experiment(jobs)
        .backends("cpu", "centaur")
        .models(DLRM1, DLRM2)
        .workloads(STEADY, MIX)
        .serve(FleetSpec(replicas=2), num_requests=2_000, seed=3)
    )


def grid_autoscale(jobs):
    return (
        experiment(jobs)
        .backends("cpu", "centaur")
        .models(DLRM2)
        .workloads(STEADY)
        .serve(
            FleetSpec(policy=parse_autoscaler_spec("util:target=0.7"), max_replicas=4),
            num_requests=3_000,
            seed=1,
        )
    )


def grid_chaos(jobs):
    return (
        experiment(jobs)
        .backends("cpu", "centaur")
        .models(DLRM2)
        .workloads(STEADY)
        .serve(FleetSpec(min_replicas=2), faults=CRASH, num_requests=3_000, seed=2)
    )


def grid_shard(jobs):
    return (
        experiment(jobs)
        .backends("centaur")
        .models(DLRM2)
        .workloads(ZIPF)
        .shard(
            shard_counts=(1, 2),
            strategies=("table", "row"),
            caches=(None, LRU),
            num_requests=600,
            seed=4,
        )
    )


GRIDS = {
    "batch": (
        grid_batch,
        "3ff69ca707f2f1f752d6f03ac1ea817fb95e77b4e242fc725742b772cf2546dc",
    ),
    "serve": (
        grid_serve,
        "2152a760d1a41cb73a261962b5af61b8a18f65afeabf0d209d47624f080c30e0",
    ),
    "autoscale": (
        grid_autoscale,
        "43cb709ded710f3873566c40761a7be08bf1d14d1189160941df5f4d8d4a4ed8",
    ),
    "chaos": (
        grid_chaos,
        "e88b3b1b6245567e71c79d7dded72df46202e3871e4a9d969bbdce336065e53e",
    ),
    "shard": (
        grid_shard,
        "4ace9daebd362c3a963aab9b1c7b2818b9f297d83fb2c374fa33119943d55f53",
    ),
}

_SERVE = ("serve", "--model", "DLRM2")
_ZIPF = ("--backend", "centaur", "--trace", "zipf:1.05")
_LRU_SHARDS = (*_SERVE, *_ZIPF, "--workload", "poisson:30000", "--jobs", "1",
               "--seed", "0", "--shards", "2:row")
CLI_CALLS = {
    "single": (
        (*_SERVE, "--backend", "centaur", "--workload", "poisson:20000",
         "--requests", "3000"),
        "f3703f9ffc50bd6ffbff4d60207f826faf8d4d130f427e1a694b31c02571dca1",
    ),
    "static-chaos": (
        (*_SERVE, "--backend", "cpu", "--workload", "poisson:40000",
         "--requests", "4000", "--replicas", "3",
         "--faults", "crash:at=0.02,restart=0.01"),
        "03a89810644d01ed4e90763835f095b38a519d0d8657b284fe4fa44b02cd5253",
    ),
    "autoscale": (
        (*_SERVE, "--backend", "cpu", "--workload", "poisson:20000",
         "--requests", "1000", "--autoscale", "schedule:0=3",
         "--replicas", "3", "--max-replicas", "4"),
        "9cb120052bb6a89994f8b3902fc7f0d14a73ad929f79adcfc860e9d7f1509ab5",
    ),
    "freshness": (
        (*_SERVE, *_ZIPF, "--requests", "600", "--cache", "lru:rows=2048",
         "--shared-cache", "lru:rows=8192",
         "--updates", "write-through:rate=8000,rows=16"),
        "f2b447ccd0abb6cc11e0706614d17e389c540acbad1081525b25c493eac7b1da",
    ),
    "shard-loss": (
        (*_SERVE, *_ZIPF, "--requests", "1500", "--shards", "4:row",
         "--cache", "lru:rows=4096",
         "--faults", "shard-loss:at=0.01,shard=1,restore=0.01"),
        "a95d076a306e78ec0d025d07340e1b09dda7480364262b9e737e6b52693c0bbb",
    ),
    # LRU shapes no bench digest covers: a capacity far above one call's
    # rows, and both push modes that touch the resident set between calls.
    "lru-large": (
        (*_LRU_SHARDS, "--cache", "lru:rows=65536", "--requests", "3000"),
        "c4d2f10b33512f1c897eed3d3aae4861ba4835305e999b0ab4dc5c4da83cfb3c",
    ),
    "lru-invalidate": (
        (*_LRU_SHARDS, "--cache", "lru:rows=4096",
         "--updates", "invalidate:rate=30000,rows=256", "--requests", "600"),
        "7b21587202a02aa03252735eba78c700f04f63f60c7350f90520a6d8ccbaf637",
    ),
    "lru-stale": (
        (*_LRU_SHARDS, "--cache", "lru:rows=4096",
         "--updates", "ignore:rate=30000,rows=256", "--requests", "600"),
        "2ca4baf6389331745e8781818755c44fc6dccdf3d5ae99d86f569ffa6414eb68",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("flavour", sorted(GRIDS))
def test_grid_csv_is_byte_identical(flavour, jobs):
    build, expected = GRIDS[flavour]
    assert sha256(build(jobs).to_csv()) == expected


@pytest.mark.parametrize("shape", sorted(CLI_CALLS))
def test_serve_stdout_is_byte_identical(shape):
    argv, expected = CLI_CALLS[shape]
    out = io.StringIO()
    with override_default_cache(), contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert sha256(out.getvalue()) == expected
