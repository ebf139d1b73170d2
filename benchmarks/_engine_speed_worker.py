"""Subprocess worker for the engine-speed benchmark (not a test module).

Run as a script with ``PYTHONPATH`` pointing at ``src``::

    python benchmarks/_engine_speed_worker.py <requests> <reps>

Prints one JSON object: best-of-``reps`` simulated requests/sec of a
``requests``-long stream, the worker's own calibration score (heap
push/pop operations per second, measured in the same process right before
the run so machine noise hits both numbers alike), and the process peak
RSS.  One trajectory point per process keeps peak-RSS attribution clean —
``ru_maxrss`` is a process-lifetime high-water mark.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

from conftest import peak_rss_bytes

from repro.config import DLRM2
from repro.config.models import DLRMConfig
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving.batching import FixedSizeBatching
from repro.serving.replica import ReplicaServer, ServiceModel, drive_stream
from repro.sim.engine import Simulator
from repro.workloads import ConstantRateArrivals, Workload

#: Heap push/pop pairs in one calibration pass.  ~0.1 s of pure-Python +
#: C-heapq work, the same mix the event engine runs on.
_CALIBRATION_OPS = 200_000


@dataclass
class _FlatRunner:
    """Constant-latency device model: isolates engine cost from pricing."""

    latency_s: float = 2e-5
    design_point: str = "Flat"

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=LatencyBreakdown({"Total": self.latency_s}),
            power_watts=10.0,
        )


def calibrate(ops: int = _CALIBRATION_OPS) -> float:
    """Machine-speed score: heap push/pop operations per second."""
    from heapq import heappop, heappush

    heap: list = []
    start = time.perf_counter()
    for index in range(ops):
        heappush(heap, (index % 997, index, None))
    while heap:
        heappop(heap)
    return ops / (time.perf_counter() - start)


def run_once(total: int) -> float:
    """One simulated stream; returns simulated requests per second."""
    workload = Workload(arrivals=ConstantRateArrivals(rate_qps=10_000_000.0))
    sim = Simulator()
    replica = ReplicaServer(
        sim,
        ServiceModel(_FlatRunner(), DLRM2),
        FixedSizeBatching(batch_size=1024),
    )
    stream = workload.requests(num_requests=total)
    start = time.perf_counter()
    outcome = drive_stream(sim, [replica], stream, lambda request: replica)
    elapsed = time.perf_counter() - start
    assert outcome.completed == total, "stream conservation violated"
    return total / elapsed


def main(argv: list) -> int:
    total, reps = int(argv[1]), int(argv[2])
    # Calibrate once per rep and keep the best of each series
    # independently: on a noisy shared machine, best-of-N converges to the
    # quiet-window speed, which is the stable, comparable quantity.
    calibration = 0.0
    best = 0.0
    for _ in range(reps):
        calibration = max(calibration, calibrate())
        best = max(best, run_once(total))
    print(
        json.dumps(
            {
                "requests": total,
                "reqs_per_sec": round(best, 1),
                "calibration_ops_per_s": round(calibration, 1),
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
