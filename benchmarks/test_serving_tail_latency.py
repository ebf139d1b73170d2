"""Extension benchmark (beyond the paper): tail latency under online load.

The paper evaluates per-batch latency; production recommendation services
care about tail latency under bursty arrivals.  This benchmark serves the
same Poisson request stream through each design point with an identical
dynamic-batching policy and compares p99 latency, SLA attainment and energy
per request.
"""

from repro.analysis import render_serving_comparison
from repro.backends import get_backend
from repro.config import DLRM2
from repro.serving import (
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    RoundRobinDispatcher,
    TimeoutBatching,
)
from repro.utils import TextTable

LOAD_QPS = 30_000
DURATION_S = 0.25
SLA_S = 5e-3
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


def _serve_all(system):
    reports = {}
    for runner in (
        get_backend("cpu", system),
        get_backend("cpu-gpu", system),
        get_backend("centaur", system),
    ):
        simulator = Fleet(runner, DLRM2, FleetSpec(batching=BATCHING))
        reports[runner.design_point] = simulator.serve_poisson(
            rate_qps=LOAD_QPS, duration_s=DURATION_S, seed=42
        )
    return reports


def test_serving_tail_latency(report_sink, system):
    reports = _serve_all(system)

    table = TextTable(
        ["design point", "p50 (ms)", "p99 (ms)", "SLA attainment %", "energy/req (mJ)"],
        title=f"Online serving of DLRM(2) at {LOAD_QPS:,} QPS (extension experiment)",
    )
    for name, report in reports.items():
        table.add_row(
            [
                name,
                report.latency.p50_s * 1e3,
                report.latency.p99_s * 1e3,
                100.0 * report.latency.sla_attainment(SLA_S),
                report.energy_per_request_joules * 1e3,
            ]
        )
    report_sink("serving_tail_latency", table.render())

    cpu = reports["CPU-only"]
    centaur = reports["Centaur"]
    # Centaur's lower per-batch latency translates into a lower tail and less
    # energy per request at the same offered load.
    assert centaur.latency.p99_s < cpu.latency.p99_s
    assert centaur.latency.sla_attainment(SLA_S) >= cpu.latency.sla_attainment(SLA_S)
    assert centaur.energy_per_request_joules < cpu.energy_per_request_joules
    assert centaur.device_utilization < cpu.device_utilization


FLEET_LOAD_QPS = 120_000


def _serve_fleet(system):
    """2x CPU + 1x Centaur under four dispatch policies at the same load."""
    reports = {}
    for dispatcher in (
        RoundRobinDispatcher(),
        PowerOfTwoChoicesDispatcher(seed=7),
        JoinShortestQueueDispatcher(),
        LeastLoadedDispatcher(),
    ):
        fleet = Fleet(
            ["cpu", "cpu", "centaur"],
            DLRM2,
            FleetSpec(dispatcher=dispatcher, batching=BATCHING),
            system,
        )
        reports[dispatcher.name] = fleet.serve_poisson(
            rate_qps=FLEET_LOAD_QPS, duration_s=DURATION_S, seed=42
        )
    return reports


def test_serving_dispatch_policies(report_sink, system):
    """Extension benchmark: dispatch policy effects on a heterogeneous fleet.

    The fleet's CPU sockets saturate if they receive an equal share of the
    load; queue-aware dispatch must route around them.
    """
    reports = _serve_fleet(system)
    report_sink(
        "serving_dispatch_policies",
        render_serving_comparison(
            reports,
            sla_s=SLA_S,
            title=(
                f"Dispatch over 2x CPU + 1x Centaur serving DLRM(2) at "
                f"{FLEET_LOAD_QPS:,} QPS"
            ),
        ),
    )

    round_robin = reports["round-robin"]
    shortest_queue = reports["join-shortest-queue"]
    least_loaded = reports["least-loaded"]
    two_choices = reports["power-of-two-choices"]
    # Queue-aware dispatch beats blind rotation on a skewed fleet, and two
    # random choices recover most of the full-information benefit.
    assert shortest_queue.latency.p99_s < round_robin.latency.p99_s
    assert least_loaded.latency.p99_s < round_robin.latency.p99_s
    assert two_choices.latency.p99_s < round_robin.latency.p99_s
    # Every policy serves the identical request stream.
    counts = {report.completed_requests for report in reports.values()}
    assert len(counts) == 1
