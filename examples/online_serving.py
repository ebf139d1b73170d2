"""Online serving under realistic traffic: tail latency of the design points.

The paper argues that user-facing recommendation services need
latency-optimized hardware because they run under firm SLAs.  This example
goes one step further than per-batch latency: it simulates an online serving
system through the :mod:`repro.workloads` subsystem and reports the
p50/p95/p99 request latency, device utilization and energy per request of
CPU-only, CPU-GPU and Centaur — first under smooth Poisson load, then under
traffic shapes the eager request-list API could never express: MMPP bursts,
a diurnal day-curve, and a multi-model traffic mix served by one cluster.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

from repro import get_backend
from repro.analysis import render_serving_comparison
from repro.config import DLRM2, DLRM4, HARPV2_SYSTEM
from repro.serving import (
    AdaptiveWindowBatching,
    CloseOnFullBatching,
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    RoundRobinDispatcher,
    TimeoutBatching,
)
from repro.utils import TextTable
from repro.workloads import (
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TrafficMix,
    Workload,
)

#: Arrival rates to sweep (queries per second).
LOADS_QPS = (5_000, 20_000, 40_000)
#: Simulated wall-clock window per experiment.
DURATION_S = 0.25
#: Dynamic batching policy shared by every design point.
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)
#: Latency SLA used for the attainment column.
SLA_S = 5e-3


def main() -> None:
    model = DLRM2
    runners = tuple(
        get_backend(name, HARPV2_SYSTEM) for name in ("cpu", "cpu-gpu", "centaur")
    )
    print(f"Serving {model.name} with a {BATCHING.window_s * 1e3:.1f} ms batching window, "
          f"max batch {BATCHING.max_batch_size}, SLA {SLA_S * 1e3:.0f} ms\n")

    for load in LOADS_QPS:
        workload = Workload(arrivals=PoissonArrivals(rate_qps=load))
        table = TextTable(
            [
                "design point",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "SLA attainment",
                "avg batch",
                "utilization",
                "energy/req (mJ)",
            ],
            title=f"Offered load: {load:,} QPS over {DURATION_S * 1e3:.0f} ms",
        )
        for runner in runners:
            simulator = Fleet(runner, model, FleetSpec(batching=BATCHING))
            report = simulator.serve_workload(workload, duration_s=DURATION_S, seed=42)
            table.add_row(
                [
                    report.design_point,
                    report.latency.p50_s * 1e3,
                    report.latency.p95_s * 1e3,
                    report.latency.p99_s * 1e3,
                    f"{report.latency.sla_attainment(SLA_S) * 100:.1f}%",
                    report.average_batch_size,
                    f"{report.device_utilization * 100:.0f}%",
                    report.energy_per_request_joules * 1e3,
                ]
            )
        print(table.render())
        print()

    print(
        "At light load every design point meets the SLA; as the load approaches"
        "\nthe CPU's saturation throughput its queue explodes while Centaur keeps"
        "\nits tail latency flat - the serving-level consequence of the per-batch"
        "\nspeedups in Figure 14.\n"
    )

    compare_traffic_shapes(model)
    serve_traffic_mix()
    compare_batching_policies(model)
    compare_dispatchers(model)


def compare_traffic_shapes(model) -> None:
    """Same mean load, three shapes: smooth, bursty (MMPP), diurnal.

    The eager Poisson-only API could not express the bursty or diurnal
    streams; with the workload subsystem they are one object each.
    """
    mean_qps = 25_000.0
    shapes = {
        "poisson (smooth)": Workload(
            arrivals=PoissonArrivals(rate_qps=mean_qps), name="smooth"
        ),
        "bursty (MMPP on/off)": Workload(
            arrivals=OnOffArrivals(
                on_rate_qps=2.0 * mean_qps - 5_000.0,
                off_rate_qps=5_000.0,
                mean_on_s=0.02,
                mean_off_s=0.02,
            ),
            name="bursty",
        ),
        "diurnal (day curve)": Workload(
            arrivals=DiurnalArrivals(
                trough_qps=5_000.0, peak_qps=2.0 * mean_qps - 5_000.0, period_s=DURATION_S
            ),
            name="diurnal",
        ),
    }
    reports = {}
    for label, workload in shapes.items():
        simulator = Fleet(
            get_backend("centaur", HARPV2_SYSTEM), model, FleetSpec(batching=BATCHING)
        )
        reports[label] = simulator.serve_workload(
            workload, duration_s=DURATION_S, seed=42
        )
    print(
        render_serving_comparison(
            reports,
            sla_s=SLA_S,
            title=f"Traffic shape at ~{mean_qps:,.0f} QPS mean on one Centaur device",
        )
    )
    print(
        "All three streams offer the same mean load, but the tail is set by"
        "\nthe shape: MMPP bursts pile the queue during on-periods and the"
        "\nday-curve crest behaves like a slow-motion burst - exactly the"
        "\nscenarios capacity planning must survive.\n"
    )


def serve_traffic_mix() -> None:
    """One heterogeneous cluster serving two DLRM configs concurrently."""
    mix = TrafficMix.of((DLRM2, 0.7), (DLRM4, 0.3))
    workload = Workload(
        arrivals=PoissonArrivals(rate_qps=60_000.0), mix=mix, name="blend"
    )
    fleet = Fleet(
        ["cpu", "centaur", "centaur"],
        DLRM2,
        FleetSpec(dispatcher=LeastLoadedDispatcher(), batching=BATCHING),
        HARPV2_SYSTEM,
    )
    report = fleet.serve_workload(workload, duration_s=DURATION_S, seed=42)
    print(
        render_serving_comparison(
            {f"{fleet.design_point} fleet": report},
            sla_s=SLA_S,
            title=f"Multi-model mix {mix.label} on one cluster at 60,000 QPS",
        )
    )
    print(
        "Every request is tagged with its target model; replicas split each"
        "\nbatch into per-model segments and price them separately, so one"
        "\nfleet can absorb a blended production workload.\n"
    )


def compare_batching_policies(model) -> None:
    """Queue-reactive batching policies on a single Centaur device."""
    policies = {
        "timeout 1ms": BATCHING,
        "close-on-full (greedy)": CloseOnFullBatching(batch_size=64),
        "adaptive window": AdaptiveWindowBatching(base_window_s=2e-3, max_batch_size=64),
    }
    reports = {}
    for label, policy in policies.items():
        simulator = Fleet(
            get_backend("centaur", HARPV2_SYSTEM), model, FleetSpec(batching=policy)
        )
        reports[label] = simulator.serve_poisson(
            rate_qps=30_000, duration_s=DURATION_S, seed=42
        )
    print(
        render_serving_comparison(
            reports,
            sla_s=SLA_S,
            title="Batching policies on one Centaur device at 30,000 QPS",
        )
    )
    print(
        "The greedy policy dispatches eagerly whenever the device idles, so it"
        "\ntrades average batch size for latency; the adaptive window shrinks"
        "\nunder bursts and sits between the fixed window and the greedy policy.\n"
    )


def compare_dispatchers(model) -> None:
    """A heterogeneous fleet (2 CPU sockets + 1 Centaur) under four dispatchers."""
    load = 120_000
    workload = Workload(arrivals=PoissonArrivals(rate_qps=load), name="dispatch-load")
    dispatchers = (
        RoundRobinDispatcher(),
        PowerOfTwoChoicesDispatcher(seed=7),
        JoinShortestQueueDispatcher(),
        LeastLoadedDispatcher(),
    )
    reports = {}
    for dispatcher in dispatchers:
        fleet = Fleet(
            ["cpu", "cpu", "centaur"],
            model,
            FleetSpec(dispatcher=dispatcher, batching=BATCHING),
            HARPV2_SYSTEM,
        )
        reports[dispatcher.name] = fleet.serve_workload(
            workload, duration_s=DURATION_S, seed=42
        )
    print(
        render_serving_comparison(
            reports,
            sla_s=SLA_S,
            title=f"Dispatch policies over 2x CPU + 1x Centaur at {load:,} QPS",
        )
    )
    print(
        "Blind round-robin sends a third of the load to each socket and the CPU"
        "\nqueues dominate the tail; queue-aware dispatch (JSQ, least-loaded)"
        "\nroutes around the slow sockets, and two random choices already recover"
        "\nmost of that benefit."
    )


if __name__ == "__main__":
    main()
