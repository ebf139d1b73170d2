"""Acceptance: a 5M-request streaming serving run stays O(in-flight) memory.

The workload subsystem's streaming contract: serving an arbitrarily long
request stream holds only the in-flight requests (pending batch + device
queue + the driver's single look-ahead arrival) resident.  This test drives
five million requests through the event engine and asserts the peak resident
request count against the in-flight bound — not against the stream length.
The replica's completion record is the one thing that grows with the stream:
8 bytes per completed request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DLRM2
from repro.config.models import DLRMConfig
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving.batching import FixedSizeBatching
from repro.serving.replica import ReplicaServer, ServiceModel, drive_stream
from repro.sim.engine import Simulator
from repro.workloads import ConstantRateArrivals, Workload

TOTAL_REQUESTS = 5_000_000
BATCH_CAP = 1_024


@dataclass
class FlatRunner:
    """Constant-latency device so the run prices batches in O(1)."""

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


def test_five_million_requests_hold_only_in_flight_memory():
    # Offered load ~20% of device capacity (1024 / 2e-5 = 51.2M QPS), so the
    # device keeps up and in-flight work stays near two batches.
    workload = Workload(
        arrivals=ConstantRateArrivals(rate_qps=10_000_000.0), name="scale-5m"
    )
    sim = Simulator()
    replica = ReplicaServer(
        sim,
        ServiceModel(FlatRunner(), DLRM2),
        FixedSizeBatching(batch_size=BATCH_CAP),
    )
    stream = workload.requests(num_requests=TOTAL_REQUESTS)
    outcome = drive_stream(sim, [replica], stream, lambda request: replica)

    # Every request arrived and completed (conservation at 5M scale).
    assert outcome.scheduled == TOTAL_REQUESTS
    assert outcome.completed == TOTAL_REQUESTS
    assert replica.completed_count == TOTAL_REQUESTS

    # Peak resident requests: a handful of in-flight batches plus the
    # driver's single scheduled look-ahead arrival, unrelated to stream
    # length.
    assert outcome.peak_resident <= 4 * BATCH_CAP + 1

    # What grows is the completion record: one 8-byte arrival time per
    # request, and full batches plus one flushed partial batch at the end.
    record = replica.completed_arrival_s
    assert len(record) == TOTAL_REQUESTS
    assert record.itemsize == 8
    assert len(replica.executed) == -(-TOTAL_REQUESTS // BATCH_CAP)

    # And the report reads its latencies from that record.
    report = replica.build_report(DLRM2.name)
    assert report.completed_requests == TOTAL_REQUESTS
    assert report.latency.mean_s > 0.0
    assert report.latency.max_s < 1e-2
