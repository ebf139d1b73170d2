"""Smoke benchmark: streaming arrival-generation throughput (requests/sec).

The streaming serving path is only as fast as its arrival generators, so
this benchmark measures how many requests per second each vectorized
:class:`~repro.workloads.ArrivalProcess` produces.  Rates are printed (they
are machine-dependent, so nothing is written to ``benchmarks/output/``) and
a conservative floor guards against accidentally de-vectorizing the chunked
draw path.
"""

import time

from repro.utils import TextTable
from repro.workloads import (
    ConstantRateArrivals,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
)

STREAM_LENGTH = 200_000
#: Conservative floor; the vectorized paths exceed this by a wide margin,
#: while a de-vectorized per-request draw loop falls well under it.
MIN_REQUESTS_PER_SECOND = 50_000

PROCESSES = (
    PoissonArrivals(rate_qps=1_000_000.0),
    ConstantRateArrivals(rate_qps=1_000_000.0),
    OnOffArrivals(
        on_rate_qps=2_000_000.0, off_rate_qps=200_000.0, mean_on_s=0.01, mean_off_s=0.01
    ),
    DiurnalArrivals(trough_qps=500_000.0, peak_qps=2_000_000.0, period_s=0.5),
)


def _drain(process):
    consumed = 0
    for _ in process.arrivals(num_requests=STREAM_LENGTH, seed=0):
        consumed += 1
    return consumed


def test_workload_generation_throughput():
    """Each arrival process streams requests fast enough for 5M-scale runs."""
    rates = {}
    for process in PROCESSES:
        start = time.perf_counter()
        consumed = _drain(process)
        elapsed = time.perf_counter() - start
        rates[process.kind] = consumed / elapsed

    table = TextTable(
        ["arrival process", "requests/sec"],
        title=f"Streaming arrival generation over {STREAM_LENGTH:,} requests",
    )
    for kind, rate in rates.items():
        table.add_row([kind, f"{rate:,.0f}"])
    print()
    print(table.render())

    for kind, rate in rates.items():
        assert rate > MIN_REQUESTS_PER_SECOND, (
            f"{kind} generates only {rate:,.0f} requests/sec; "
            "the chunked vectorized draw path has regressed"
        )
