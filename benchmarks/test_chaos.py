"""Extension benchmark (beyond the paper): chaos drills on the serving fleet.

The paper sizes fleets for steady state; this benchmark measures what a
deterministic fault drill costs at that operating point.  The catalog's
``region-failover`` scenario (two simultaneous replica crashes with
restarts) runs against a static three-replica CPU fleet, and a shard-loss
drill with rehash failover runs against a four-shard Centaur group — the
incident timelines report the SLA dip, the shed/re-dispatched traffic,
the correctness loss and the time-to-recover.
"""

from repro.analysis import render_incident_timeline, render_serving_comparison
from repro.backends import get_backend
from repro.chaos import FaultSchedule, ShardLoss
from repro.config import DLRM1, DLRM2
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import parse_cache_spec
from repro.workloads import SCENARIO_CATALOG

NUM_REQUESTS = 3_000
SEED = 7
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def _fleet_drill(system):
    scenario = SCENARIO_CATALOG["region-failover"]
    backend = get_backend("cpu", system)

    def serve(faults):
        cluster = Fleet(
            backend,
            DLRM1,
            FleetSpec(
                replicas=3,
                max_replicas=3,
                warmup_s=backend.capabilities.provision_warmup_s,
                batching=BATCHING,
            ),
        )
        return cluster.serve_workload(
            scenario.workload(), num_requests=NUM_REQUESTS, seed=SEED, faults=faults
        )

    return serve(None), serve(scenario.schedule())


def _shard_drill(system):
    group = Fleet(
        get_backend("centaur", system),
        DLRM2,
        FleetSpec(shards=4, cache=parse_cache_spec("lru:rows=2048"), batching=BATCHING),
        system,
    )
    scenario = SCENARIO_CATALOG["region-failover"]
    return group.serve_workload(
        scenario.workload(),
        num_requests=NUM_REQUESTS,
        seed=SEED,
        faults=FaultSchedule(
            [ShardLoss(at_s=0.01, shard=1, restore_after_s=0.02, failover="rehash")],
            sla_s=5e-3,
        ),
    )


def test_chaos_resilience(report_sink, system):
    healthy, drilled = _fleet_drill(system)
    sharded = _shard_drill(system)

    sections = [
        render_serving_comparison(
            {"healthy x3": healthy, "region-failover drill": drilled},
            sla_s=5e-3,
            title="Static CPU fleet, steady 20k QPS: healthy vs region-failover",
        ),
        render_incident_timeline(
            drilled, title="Fleet incident timeline (region-failover)"
        ),
        render_incident_timeline(
            sharded, title="Sharded incident timeline (shard-loss, rehash failover)"
        ),
    ]
    report_sink("chaos_resilience", "\n\n".join(sections))

    incidents = drilled.incidents
    assert incidents is not None and len(incidents.incidents) == 2
    assert all(incident.cleared for incident in incidents.incidents)
    assert incidents.worst_time_to_recover_s > 0.0
    assert sharded.incidents.total_degraded_lookups > 0
