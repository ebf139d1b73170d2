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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.arrivals": ("InferenceRequest",),
        ".batching": (
            "BatchingPolicy", "BatchSignal", "FixedSizeBatching", "TimeoutBatching",
            "CloseOnFullBatching", "AdaptiveWindowBatching", "SizeBucketedBatching",
        ),
        ".metrics": ("ExecutedBatch", "LatencyDistribution", "ServingReport"),
        ".replica": ("ReplicaServer", "ServiceModel"),
        ".dispatch": (
            "Dispatcher", "RoundRobinDispatcher", "JoinShortestQueueDispatcher",
            "LeastLoadedDispatcher", "PowerOfTwoChoicesDispatcher",
        ),
        ".cluster": ("ClusterReport", "ReplicaSpec"),
        ".autoscale": (
            "AutoscaleReport", "AutoscalerPolicy", "ClusterObservation", "QueueDepthPolicy",
            "TargetUtilizationPolicy", "ScheduledPolicy", "EWMAPolicy", "parse_autoscaler_spec",
        ),
        ".fleet": ("Fleet", "FleetSpec"),
        ".planner": ("CapacityPlan", "CapacityPlanner", "CapacityPoint"),
        ".sharded": ("ShardedReplicaServer", "ShardingStats"),
    },
)
