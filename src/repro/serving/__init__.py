"""Online-serving simulation substrate (beyond-paper extension).

The paper motivates Centaur with user-facing recommendation services that
must meet firm SLA targets under bursty load.  This package closes the loop
with an event-driven serving core built on :mod:`repro.sim.engine`: request
arrivals, batch-close timers, device busy/free transitions and completions
are all scheduled events.  On top of the core sit queue-reactive batching
policies, pluggable dispatchers (round-robin, join-shortest-queue,
least-loaded, power-of-two-choices) and one front-end, :class:`Fleet`,
that serves a single device, a static or elastic fleet, a mix of CPU-only,
CPU-GPU and Centaur replicas, or a sharded group — reporting the
throughput / tail-latency trade-off under identical load.
"""

from repro.workloads.arrivals import InferenceRequest
from repro.serving.batching import (
    AdaptiveWindowBatching,
    BatchingPolicy,
    BatchSignal,
    CloseOnFullBatching,
    FixedSizeBatching,
    SizeBucketedBatching,
    TimeoutBatching,
)
from repro.serving.metrics import ExecutedBatch, LatencyDistribution, ServingReport
from repro.serving.replica import ReplicaServer, ServiceModel
from repro.serving.dispatch import (
    Dispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    RoundRobinDispatcher,
)
from repro.serving.cluster import ClusterReport, ReplicaSpec
from repro.serving.autoscale import (
    AutoscaleReport,
    AutoscalerPolicy,
    ClusterObservation,
    EWMAPolicy,
    QueueDepthPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    parse_autoscaler_spec,
)
from repro.serving.fleet import Fleet, FleetSpec
from repro.serving.planner import CapacityPlan, CapacityPlanner, CapacityPoint
from repro.serving.sharded import ShardedReplicaServer, ShardingStats

__all__ = [
    "InferenceRequest",
    "BatchingPolicy",
    "BatchSignal",
    "FixedSizeBatching",
    "TimeoutBatching",
    "CloseOnFullBatching",
    "AdaptiveWindowBatching",
    "SizeBucketedBatching",
    "ExecutedBatch",
    "LatencyDistribution",
    "ServingReport",
    "ReplicaServer",
    "ServiceModel",
    "Dispatcher",
    "RoundRobinDispatcher",
    "JoinShortestQueueDispatcher",
    "LeastLoadedDispatcher",
    "PowerOfTwoChoicesDispatcher",
    "ClusterReport",
    "ReplicaSpec",
    "AutoscaleReport",
    "AutoscalerPolicy",
    "ClusterObservation",
    "QueueDepthPolicy",
    "TargetUtilizationPolicy",
    "ScheduledPolicy",
    "EWMAPolicy",
    "parse_autoscaler_spec",
    "Fleet",
    "FleetSpec",
    "CapacityPlan",
    "CapacityPlanner",
    "CapacityPoint",
    "ShardedReplicaServer",
    "ShardingStats",
]
