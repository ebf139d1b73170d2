"""Slow smoke: a seeded 1M-request run sustains engine throughput.

Marked ``slow``: CI runs it in the serial job (where wall-clock is not
skewed by xdist workers sharing cores).  The floor is deliberately loose —
a quarter of the measured quiet-machine rate (~277k req/s, see
BENCH_engine.json) — so it only trips on order-of-magnitude engine
regressions (e.g. an accidental O(n) scan per event), never on machine
noise.  Exact throughput tracking lives in benchmarks/test_engine_speed.py.
"""

from __future__ import annotations

import time

import pytest

from repro.config import DLRM2
from repro.serving.batching import FixedSizeBatching
from repro.serving.replica import ReplicaServer, ServiceModel, drive_stream
from repro.sim.engine import Simulator
from repro.workloads import ConstantRateArrivals, Workload

from tests.integration.test_streaming_scale import FlatRunner

TOTAL_REQUESTS = 1_000_000
BATCH_CAP = 1_024
#: Simulated requests per wall-clock second the engine must sustain.
FLOOR_REQS_PER_SEC = 60_000.0


@pytest.mark.slow
def test_one_million_requests_meet_throughput_floor():
    workload = Workload(
        arrivals=ConstantRateArrivals(rate_qps=10_000_000.0), name="smoke-1m"
    )
    sim = Simulator()
    replica = ReplicaServer(
        sim,
        ServiceModel(FlatRunner(), DLRM2),
        FixedSizeBatching(batch_size=BATCH_CAP),
    )
    stream = workload.requests(num_requests=TOTAL_REQUESTS, seed=3)
    start = time.perf_counter()
    outcome = drive_stream(sim, [replica], stream, lambda request: replica)
    elapsed = time.perf_counter() - start

    # Conservation before speed: every request arrived and completed.
    assert outcome.scheduled == TOTAL_REQUESTS
    assert outcome.completed == TOTAL_REQUESTS
    assert replica.completed_count == TOTAL_REQUESTS

    reqs_per_sec = TOTAL_REQUESTS / elapsed
    assert reqs_per_sec >= FLOOR_REQS_PER_SEC, (
        f"engine sustained only {reqs_per_sec:,.0f} simulated req/s over "
        f"{TOTAL_REQUESTS:,} requests (floor {FLOOR_REQS_PER_SEC:,.0f}); "
        "profile with Simulator(profile=True) or repro serve --profile"
    )
