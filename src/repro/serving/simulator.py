"""Single-device serving: the one-replica :class:`~repro.serving.fleet.Fleet`.

:class:`ServingSimulator` is a fleet of one replica and no dispatcher.
Per-request latency is queueing delay (waiting for the batch to form and
for the device to become free) plus the batch's execution time — exactly
the quantity an SLA is written against.

For open-loop policies (:class:`~repro.serving.batching.TimeoutBatching`,
:class:`~repro.serving.batching.FixedSizeBatching`) the event-driven run
reproduces the original offline replay batch-for-batch (the test suite
keeps that replay as an oracle); queue-reactive policies (close-on-full,
adaptive window) react to device state, which only the event core can
express.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config.models import DLRMConfig
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.fleet import Fleet
from repro.serving.metrics import ServingReport
from repro.serving.replica import DesignPointRunner, ReplicaServer, ServiceModel
from repro.sim.engine import Simulator

__all__ = ["DesignPointRunner", "ServingSimulator"]


class ServingSimulator(Fleet):
    """Simulates one inference device serving a batched request stream.

    Args:
        runner: A design-point runner (CPU-only, CPU-GPU or Centaur).
        model: Workload configuration served by the device.
        batching: Batching policy; defaults to a 2 ms window capped at 64.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        runner: DesignPointRunner,
        model: DLRMConfig,
        batching: Optional[BatchingPolicy] = None,
        profile: bool = False,
    ):
        super().__init__(model, profile=profile)
        self.runner = runner
        self.batching = batching if batching is not None else default_batching()
        self._service = ServiceModel(runner, model)

    def _replicas(
        self, sim: Simulator, faults, extra_models: Sequence[DLRMConfig] = ()
    ) -> List[ReplicaServer]:
        service = ServiceModel(self.runner, self.model, self._service._cache, extra_models)
        return [ReplicaServer(sim, service, self.batching, name=f"{self.runner.design_point}:0")]

    def _report(self, replicas, label: str, allow_empty: bool) -> ServingReport:
        return replicas[0].build_report(label)

    def saturation_throughput(self, max_batch_size: int = 128) -> float:
        """Upper bound on sustainable QPS: best batch-size throughput."""
        return self._service.saturation_throughput(max_batch_size)
