"""``measure_incidents`` slices the completion timeline exactly as by filtering.

The measurement slices a fleet's pooled completion timeline with
``np.searchsorted`` at each incident's edges.  The reference below filters
per request instead: a window holds the completions with
``start <= time < end``, a window in which nothing completed reads
``None``, and the time-to-recover scan walks ``window_s`` buckets from the
onset under the same rule.  Samples are drawn on the window edges, where a
wrong side of the binary search would show.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.chaos import Brownout, FaultSchedule, ReplicaCrash, measure_incidents
from repro.chaos.report import Incident, IncidentReport
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.serving.metrics import ExecutedBatch
from repro.workloads import PoissonArrivals, Workload


def reference_windows(report, sla_s):
    """``(sla_before, sla_during, sla_after, p99_before_s, time_to_recover_s)``
    of each incident, in onset order, and the derived window width."""
    samples = []
    for replica in report.per_replica:
        finishes = [
            batch.finish_time_s
            for batch in replica.executed_batches
            for _ in range(batch.batch_size)
        ]
        samples.extend(zip(finishes, replica.ordered_latency_s.tolist()))
    incidents = sorted(report.incidents.incidents, key=lambda incident: incident.start_s)
    longest = max((incident.end_s - incident.start_s for incident in incidents), default=0.0)
    window_s = max(longest, 5e-3)

    def inside(start, end):
        return [latency for time, latency in samples if start <= time < end]

    def attainment(latencies):
        if not latencies:
            return None
        return sum(latency <= sla_s for latency in latencies) / len(latencies)

    rows = []
    for incident in incidents:
        start, end = incident.start_s, incident.end_s
        before = inside(start - window_s, start)
        p99_before = float(np.percentile(before, 99.0)) if before else None
        recover = None
        if p99_before:
            edge = start
            while edge < report.incidents.horizon_s:
                bucket = inside(edge, edge + window_s)
                if bucket and float(np.percentile(bucket, 99.0)) <= p99_before * 1.1:
                    recover = edge + window_s - start
                    break
                edge += window_s
        rows.append(
            (
                attainment(before),
                attainment(inside(start, end)),
                attainment(inside(end, end + window_s)),
                p99_before,
                recover,
            )
        )
    return rows, window_s


def measured_windows(measures):
    return [
        (
            windows.sla_before,
            windows.sla_during,
            windows.sla_after,
            windows.p99_before_s,
            windows.time_to_recover_s,
        )
        for windows in measures.windows
    ]


@st.composite
def runs(draw):
    """A fake chaos run: incidents in onset order, completions on their edges."""
    spans = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.004, 0.01, 0.02, 0.05]),
                st.sampled_from([0.0, 0.001, 0.005, 0.008, 0.02]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    spans.sort()
    horizon = max(start + length for start, length in spans) + draw(
        st.sampled_from([0.0, 0.005, 0.03])
    )
    window = max(max(length for _, length in spans), 5e-3)
    edges = [0.0, horizon]
    for start, length in spans:
        edges += [start - window, start, start + length, start + length + window]
        edges += [start + step * window for step in range(1, 4)]
    edges = [edge for edge in edges if edge >= 0.0]
    on_edge = st.sampled_from(edges)
    anywhere = st.floats(min_value=0.0, max_value=horizon + window)
    times = draw(st.lists(st.one_of(on_edge, on_edge, anywhere), max_size=60))
    latencies = draw(
        st.lists(
            st.sampled_from([1e-3, 2e-3, 5e-3, 8e-3]) | st.floats(min_value=0.0, max_value=0.02),
            min_size=len(times),
            max_size=len(times),
        )
    )
    replicas = draw(st.integers(min_value=1, max_value=3))
    # Spread the samples over the replicas, each in completion order.
    per_replica = [[] for _ in range(replicas)]
    for index, sample in enumerate(sorted(zip(times, latencies))):
        per_replica[index % replicas].append(sample)
    return spans, horizon, per_replica


def fake_report(spans, horizon, per_replica):
    # One single-request batch per sample, each finishing at its time.
    replicas = [
        SimpleNamespace(
            executed_batches=[ExecutedBatch(time, time, time, 1) for time, _ in samples],
            ordered_latency_s=np.array([latency for _, latency in samples], dtype=np.float64),
        )
        for samples in per_replica
    ]
    incidents = tuple(
        Incident(
            kind="crash",
            target=f"replica:{index}",
            start_s=start,
            end_s=start + length,
            cleared=True,
            shed_requests=0,
            redispatched_requests=0,
            degraded_lookups=0,
            recovery_replica_seconds=0.0,
            recovery_energy_joules=0.0,
            refill_rows=0,
            refill_s=0.0,
            refill_energy_joules=0.0,
            note="",
        )
        for index, (start, length) in enumerate(spans)
    )
    return SimpleNamespace(
        per_replica=replicas,
        incidents=IncidentReport(schedule="fake", horizon_s=horizon, incidents=incidents),
    )


@given(run=runs(), sla_ms=st.sampled_from([1.0, 2.0, 5.0, 10.0]))
@settings(deadline=None)
def test_bisected_windows_measure_like_the_filter(run, sla_ms):
    report = fake_report(*run)
    sla_s = sla_ms * 1e-3
    measures = measure_incidents(report, sla_s)
    rows, window_s = reference_windows(report, sla_s)
    assert measures.window_s == window_s
    assert [windows.incident for windows in measures.windows] == list(report.incidents.incidents)
    assert measured_windows(measures) == rows


def test_edge_samples_land_where_the_filter_puts_them():
    # One 1/64 s incident from 1/32 s, so 1/64 s windows (binary fractions
    # keep the edges exact): a completion at onset minus the window is
    # "before", one at its onset "during", one at its end "after" and one at
    # its end plus the window in none of them.
    samples = [(1 / 64, 1e-3), (2 / 64, 9e-3), (3 / 64, 1e-3), (4 / 64, 9e-3)]
    report = fake_report([(2 / 64, 1 / 64)], 5 / 64, [samples])
    (windows,) = measure_incidents(report, 5e-3).windows
    assert (windows.sla_before, windows.sla_during, windows.sla_after) == (1.0, 0.0, 1.0)
    assert measured_windows(measure_incidents(report, 5e-3)) == reference_windows(
        report, 5e-3
    )[0]


def test_an_empty_window_measures_nothing():
    # Nothing completes during the incident or after it.
    report = fake_report([(0.02, 0.01)], 0.05, [[(0.015, 1e-3)]])
    (windows,) = measure_incidents(report, 5e-3).windows
    assert windows.sla_before == 1.0
    assert windows.sla_during is windows.sla_after is windows.time_to_recover_s is None


def test_a_served_chaos_run_measures_like_the_filter():
    fleet = Fleet(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM1,
        FleetSpec(
            replicas=3,
            warmup_s=2e-3,
            batching=TimeoutBatching(window_s=1e-3, max_batch_size=32),
        ),
    )
    report = fleet.serve_workload(
        Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady"),
        num_requests=1_000,
        seed=4,
        faults=FaultSchedule(
            [
                ReplicaCrash(at_s=0.01, restart_after_s=0.005),
                Brownout(at_s=0.02, duration_s=0.01, replica=0, latency_factor=4.0),
            ]
        ),
    )
    for sla_s in (1e-3, 5e-3):
        measures = measure_incidents(report, sla_s)
        rows, window_s = reference_windows(report, sla_s)
        assert measures.window_s == window_s
        assert measured_windows(measures) == rows
        assert any(row[1] is not None for row in rows)
