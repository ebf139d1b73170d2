"""Datacenter provisioning: SLA-constrained recommendation serving.

The paper motivates Centaur with user-facing inference services (news feed,
ads, e-commerce) that must meet firm latency SLAs.  This example uses the
calibrated performance models to answer the questions a capacity planner
would ask:

* What is the largest batch size each design point can serve within a given
  tail-latency SLA, and what throughput (queries per second) does that buy?
* How much energy does each design point spend per 1000 ranked requests?
* How many server nodes are needed to sustain a target query rate?

Run with:  python examples/datacenter_provisioning.py
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import get_backend
from repro.analysis import render_serving_comparison
from repro.config import DLRM2, DLRM4, HARPV2_SYSTEM
from repro.config.models import DLRMConfig
from repro.serving import Fleet, FleetSpec, LeastLoadedDispatcher, TimeoutBatching
from repro.utils import TextTable
from repro.workloads import DiurnalArrivals, OnOffArrivals, PoissonArrivals, Workload

#: Latency SLA for one ranking request batch (a typical user-facing budget).
SLA_SECONDS = 2.0e-3
#: Target aggregate load for the node-count estimate.
TARGET_QPS = 100_000.0
#: Batch sizes a serving platform would realistically consider.
CANDIDATE_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class ProvisioningPoint:
    """Best operating point of one design point under the SLA."""

    design_point: str
    batch_size: Optional[int]
    latency_s: Optional[float]
    throughput_qps: float
    energy_per_kilo_requests_j: float
    nodes_for_target: Optional[int]


def best_operating_point(runner, model: DLRMConfig, sla_s: float) -> ProvisioningPoint:
    """Largest batch whose end-to-end latency stays within the SLA."""
    best = None
    for batch_size in CANDIDATE_BATCHES:
        result = runner.run(model, batch_size)
        if result.latency_seconds <= sla_s:
            best = result
        else:
            break
    if best is None:
        return ProvisioningPoint(
            design_point=runner.design_point,
            batch_size=None,
            latency_s=None,
            throughput_qps=0.0,
            energy_per_kilo_requests_j=float("inf"),
            nodes_for_target=None,
        )
    throughput = best.throughput_samples_per_second
    return ProvisioningPoint(
        design_point=best.design_point,
        batch_size=best.batch_size,
        latency_s=best.latency_seconds,
        throughput_qps=throughput,
        energy_per_kilo_requests_j=best.energy_per_sample_joules * 1000.0,
        nodes_for_target=int(-(-TARGET_QPS // throughput)),
    )


def provision(model: DLRMConfig) -> None:
    print("=" * 72)
    print(f"Provisioning {model.name}: SLA = {SLA_SECONDS * 1e3:.1f} ms per batch, "
          f"target load = {TARGET_QPS:,.0f} QPS")
    print("=" * 72)
    runners = tuple(
        get_backend(name, HARPV2_SYSTEM) for name in ("cpu", "cpu-gpu", "centaur")
    )
    table = TextTable(
        [
            "design point",
            "max batch in SLA",
            "latency",
            "throughput (QPS)",
            "energy / 1k req (J)",
            f"nodes for {TARGET_QPS / 1000:.0f}k QPS",
        ],
    )
    points = []
    for runner in runners:
        point = best_operating_point(runner, model, SLA_SECONDS)
        points.append(point)
        table.add_row(
            [
                point.design_point,
                point.batch_size if point.batch_size is not None else "SLA violated",
                f"{point.latency_s * 1e3:.2f} ms" if point.latency_s else "-",
                f"{point.throughput_qps:,.0f}",
                f"{point.energy_per_kilo_requests_j:.1f}"
                if point.energy_per_kilo_requests_j != float("inf")
                else "-",
                point.nodes_for_target if point.nodes_for_target is not None else "-",
            ]
        )
    print(table.render())

    cpu, _, centaur = points
    if cpu.nodes_for_target and centaur.nodes_for_target:
        saved = cpu.nodes_for_target - centaur.nodes_for_target
        print(
            f"\nCentaur serves the same {TARGET_QPS:,.0f} QPS with "
            f"{centaur.nodes_for_target} nodes instead of {cpu.nodes_for_target} "
            f"({saved} fewer sockets), while staying socket-compatible with the "
            "existing CPU fleet.\n"
        )


def validate_with_simulation(model: DLRMConfig) -> None:
    """Close the loop: simulate the provisioned fleets under realistic load.

    Static provisioning divides throughputs — implicitly assuming smooth
    traffic.  The event-driven cluster simulator then streams three traffic
    shapes of the same mean rate through the provisioned node counts: the
    smooth Poisson baseline, an MMPP burst pattern, and a diurnal day-curve
    whose crest exceeds the average the plan was sized for.  A fleet that
    only meets its SLA on the smooth stream is under-provisioned.
    """
    batching = TimeoutBatching(window_s=1e-3, max_batch_size=64)
    scenarios = {
        "poisson": Workload(
            arrivals=PoissonArrivals(rate_qps=TARGET_QPS), name="poisson"
        ),
        "bursty": Workload(
            arrivals=OnOffArrivals(
                on_rate_qps=1.6 * TARGET_QPS,
                off_rate_qps=0.4 * TARGET_QPS,
                mean_on_s=0.01,
                mean_off_s=0.01,
            ),
            name="bursty",
        ),
        "diurnal": Workload(
            arrivals=DiurnalArrivals(
                trough_qps=0.5 * TARGET_QPS, peak_qps=1.5 * TARGET_QPS, period_s=0.1
            ),
            name="diurnal",
        ),
    }
    reports = {}
    for backend_name in ("cpu", "centaur"):
        runner = get_backend(backend_name, HARPV2_SYSTEM)
        point = best_operating_point(runner, model, SLA_SECONDS)
        if point.nodes_for_target is None:
            continue
        cluster = Fleet(
            runner,
            model,
            FleetSpec(
                replicas=point.nodes_for_target,
                batching=batching,
                dispatcher=LeastLoadedDispatcher(),
            ),
        )
        for shape, workload in scenarios.items():
            label = f"{point.design_point} x{point.nodes_for_target} ({shape})"
            reports[label] = cluster.serve_workload(
                workload, duration_s=0.1, seed=42
            )
    if not reports:
        return
    print(
        render_serving_comparison(
            reports,
            sla_s=SLA_SECONDS,
            title=(
                f"Simulated check: provisioned fleets at ~{TARGET_QPS:,.0f} QPS mean "
                "under three traffic shapes (least-loaded dispatch)"
            ),
        )
    )
    print(
        "The bursty and diurnal streams offer the same mean load as the smooth"
        "\nplan, but their crests probe the headroom: node counts sized on"
        "\naverage throughput alone give back the SLA during every on-period.\n"
    )


def main() -> None:
    for model in (DLRM2, DLRM4):
        provision(model)
        validate_with_simulation(model)


if __name__ == "__main__":
    main()
