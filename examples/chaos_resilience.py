"""Chaos drills: deterministic fault injection on the serving fleet.

A capacity plan that only ever sees healthy replicas overstates what the
fleet delivers the day a rack goes dark.  This example runs the same
workload stream twice — once fault-free, once under the named
``region-failover`` scenario from the workload catalog — and shows what
the incident actually cost: requests shed during the outage, in-flight
work re-dispatched to survivors, SLA attainment before/during/after, and
the time-to-recover back to the pre-incident p99.  Everything is
seed-deterministic: the same schedule over the same stream reproduces the
same incident report byte for byte.

The script:

1. serves a Poisson stream on a static 3-replica fleet (the healthy
   baseline),
2. replays the identical stream under ``region-failover`` (two replicas
   crash at once and restart after a cold outage window),
3. prints the side-by-side serving comparison and the incident timeline,
4. repeats the drill on a sharded group, losing one embedding shard with
   re-hash failover — correct rows come back only when the shard does,
   and the degraded lookups are counted as correctness loss.

Run with:  python examples/chaos_resilience.py
"""

from __future__ import annotations

from repro import get_backend
from repro.analysis import render_incident_timeline, render_serving_comparison
from repro.chaos import FaultSchedule, ShardLoss
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.sharding import parse_cache_spec
from repro.workloads import SCENARIO_CATALOG, PoissonArrivals, Workload

SLA_S = 5e-3
RATE_QPS = 20_000.0
NUM_REQUESTS = 4_000
SEED = 7
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def fleet_drill() -> None:
    """Healthy fleet vs the same fleet through a region failover."""
    scenario = SCENARIO_CATALOG["region-failover"]
    print(f"scenario '{scenario.name}': {scenario.summary}")
    print(f"fault spec: {scenario.fault_spec}\n")

    backend = get_backend("centaur", HARPV2_SYSTEM)
    workload = Workload(arrivals=PoissonArrivals(rate_qps=RATE_QPS), name="steady")
    reports = {}
    for label, faults in (
        ("healthy x3", None),
        ("region failover x3", scenario.schedule()),
    ):
        fleet = Fleet(
            backend,
            DLRM2,
            # A static fleet of 3; a fault schedule arms the elastic plumbing.
            FleetSpec(
                replicas=3,
                max_replicas=3,
                warmup_s=backend.capabilities.provision_warmup_s,
                batching=BATCHING,
            ),
        )
        reports[label] = fleet.serve_workload(
            workload, num_requests=NUM_REQUESTS, seed=SEED, faults=faults
        )

    print(
        render_serving_comparison(
            reports, sla_s=SLA_S, title="Same stream, healthy vs region failover"
        )
    )
    print()
    print(render_incident_timeline(reports["region failover x3"]))


def shard_drill() -> None:
    """Lose one embedding shard of a sharded group, re-hash around it."""
    backend = get_backend("centaur", HARPV2_SYSTEM)
    group = Fleet(
        backend,
        DLRM2,
        FleetSpec(shards=4, cache=parse_cache_spec("lru:rows=2048"), batching=BATCHING),
        HARPV2_SYSTEM,
    )
    faults = FaultSchedule(
        [ShardLoss(at_s=0.04, shard=0, restore_after_s=0.03, failover="rehash")],
        sla_s=SLA_S,
        window_s=10e-3,
    )
    report = group.serve_workload(
        Workload(arrivals=PoissonArrivals(rate_qps=RATE_QPS), name="steady"),
        num_requests=NUM_REQUESTS,
        seed=SEED,
        faults=faults,
    )
    incidents = report.incidents
    print(render_incident_timeline(report, title="Shard-loss drill (rehash failover)"))
    lookups = report.sharding.total_lookups
    print(
        f"\ncorrectness loss: {incidents.total_degraded_lookups:,} of "
        f"{lookups:,} lookups ({100.0 * incidents.correctness_loss(lookups):.1f}%) "
        "read the wrong shard's rows while shard 0 was gone; the restored "
        "shard came back with a cold hot-row cache."
    )


def main() -> None:
    fleet_drill()
    print()
    shard_drill()
    print(
        "\nEqual seeds reproduce these incident reports byte for byte, so a"
        "\nresilience regression — slower recovery, more shed traffic — shows"
        "\nup as a deterministic diff, not a flaky rerun."
    )


if __name__ == "__main__":
    main()
