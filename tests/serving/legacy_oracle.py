"""Legacy open-loop serving replay, kept as a differential-testing oracle.

This is the original serving model: sort arrivals, form every batch ahead of
time with the policy's offline :meth:`~repro.serving.batching.BatchingPolicy.form_batches`,
then replay the batches through a single-server queue with ``start =
max(ready, device_free)``.  The event-driven one-replica
:class:`repro.serving.fleet.Fleet` must reproduce this replay exactly for
open-loop policies (see ``tests/serving/test_event_equivalence.py``); queue-reactive policies
have no open-loop equivalent and only run on the event core.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.metrics import ExecutedBatch, LatencyDistribution, ServingReport
from repro.serving.replica import DesignPointRunner, ServiceModel
from repro.workloads.arrivals import InferenceRequest, PoissonArrivals


class LegacyServingSimulator:
    """Open-loop replay of one device serving a batched request stream."""

    def __init__(
        self,
        runner: DesignPointRunner,
        model: DLRMConfig,
        batching: Optional[BatchingPolicy] = None,
    ):
        self.runner = runner
        self.model = model
        self.batching = batching if batching is not None else default_batching()
        self._service = ServiceModel(runner, model)

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[InferenceRequest]) -> ServingReport:
        """Serve an explicit request stream and report latency statistics."""
        if not requests:
            raise SimulationError("cannot serve an empty request stream")
        ordered = sorted(requests, key=lambda request: request.arrival_time_s)
        batches = self.batching.form_batches(ordered)
        if not batches:
            raise SimulationError("the batching policy produced no batches")

        executed: List[ExecutedBatch] = []
        per_request_latency: List[float] = []
        per_request_queueing: List[float] = []
        device_free_at = 0.0
        busy_time = 0.0
        energy = 0.0

        for ready_time, batch_requests in batches:
            result = self._service.result(
                self.batching.execution_batch_size(len(batch_requests))
            )
            start = max(ready_time, device_free_at)
            finish = start + result.latency_seconds
            device_free_at = finish
            busy_time += result.latency_seconds
            energy += result.energy_joules
            executed.append(
                ExecutedBatch(
                    ready_time_s=ready_time,
                    start_time_s=start,
                    finish_time_s=finish,
                    batch_size=len(batch_requests),
                )
            )
            for request in batch_requests:
                per_request_latency.append(finish - request.arrival_time_s)
                per_request_queueing.append(start - request.arrival_time_s)

        makespan = executed[-1].finish_time_s
        offered_qps = len(ordered) / max(ordered[-1].arrival_time_s, 1e-12)
        return ServingReport(
            design_point=self.runner.design_point,
            model_name=self.model.name,
            offered_load_qps=offered_qps,
            completed_requests=len(ordered),
            makespan_s=makespan,
            latency=LatencyDistribution(per_request_latency),
            queueing=LatencyDistribution(per_request_queueing),
            average_batch_size=sum(b.batch_size for b in executed) / len(executed),
            device_busy_s=busy_time,
            energy_joules=energy,
            extra={"num_batches": float(len(executed))},
            executed_batches=tuple(executed),
        )

    # ------------------------------------------------------------------
    def serve_poisson(
        self,
        rate_qps: float,
        duration_s: float,
        seed: int = 0,
    ) -> ServingReport:
        """Serve a Poisson arrival stream of the given rate and duration."""
        requests = PoissonArrivals(rate_qps=rate_qps).generate(
            duration_s=duration_s, seed=seed
        )
        if not requests:
            raise SimulationError(
                f"no requests arrived in {duration_s}s at {rate_qps} QPS; "
                "increase the duration or the rate"
            )
        return self.serve(requests)
