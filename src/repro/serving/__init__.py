"""Online-serving simulation substrate (beyond-paper extension).

The paper motivates Centaur with user-facing recommendation services that
must meet firm SLA targets under bursty load.  This package closes the loop
with an event-driven serving core built on :mod:`repro.sim.engine`: request
arrivals, batch-close timers, device busy/free transitions and completions
are all scheduled events.  On top of the core sit queue-reactive batching
policies, pluggable dispatchers (round-robin, join-shortest-queue,
least-loaded, power-of-two-choices) and heterogeneous fleets mixing
CPU-only, CPU-GPU and Centaur replicas — reporting the throughput /
tail-latency trade-off under identical load.
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
from repro.serving.simulator import ServingSimulator
from repro.serving.dispatch import (
    Dispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    RoundRobinDispatcher,
)
from repro.serving.cluster import (
    AutoscaleReport,
    ClusterReport,
    ClusterSimulator,
    HeterogeneousCluster,
    ReplicaSpec,
)
from repro.serving.autoscale import (
    AutoscalerPolicy,
    AutoscalingCluster,
    ClusterObservation,
    EWMAPolicy,
    QueueDepthPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    parse_autoscaler_spec,
)
from repro.serving.fleet import FleetSpec
from repro.serving.planner import CapacityPlan, CapacityPlanner, CapacityPoint
from repro.serving.sharded import (
    ShardedReplicaGroup,
    ShardedReplicaServer,
    ShardingStats,
)

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
    "ServingSimulator",
    "Dispatcher",
    "RoundRobinDispatcher",
    "JoinShortestQueueDispatcher",
    "LeastLoadedDispatcher",
    "PowerOfTwoChoicesDispatcher",
    "ClusterReport",
    "ClusterSimulator",
    "HeterogeneousCluster",
    "ReplicaSpec",
    "AutoscaleReport",
    "AutoscalerPolicy",
    "AutoscalingCluster",
    "ClusterObservation",
    "QueueDepthPolicy",
    "TargetUtilizationPolicy",
    "ScheduledPolicy",
    "EWMAPolicy",
    "parse_autoscaler_spec",
    "FleetSpec",
    "CapacityPlan",
    "CapacityPlanner",
    "CapacityPoint",
    "ShardedReplicaGroup",
    "ShardedReplicaServer",
    "ShardingStats",
]
