"""``render_autoscale_timeline`` buckets by bisection exactly as by filtering.

The renderer sorts the completion samples once and bisects each bucket
edge.  The reference below is the per-bucket filter it replaced, kept
verbatim as the oracle: the rendered tables must agree byte for byte,
including samples that tie on a bucket edge or sit at time 0.
"""

from types import SimpleNamespace
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import render_autoscale_timeline
from repro.serving import AutoscaleReport
from repro.serving.metrics import LatencyDistribution
from repro.utils.tables import TextTable


def reference_timeline(report, sla_s, buckets=12, bar_width=24, title="Autoscale timeline"):
    samples: List[tuple] = []
    for replica in report.per_replica:
        samples.extend(replica.completion_samples())
    horizon = max(time for time, _ in samples)
    autoscale = getattr(report, "autoscale", None)
    if autoscale is not None:
        horizon = max(horizon, autoscale.timeline[-1][0])
        peak = max(count for _, count in autoscale.timeline)
        header = (
            f"{title}: policy={autoscale.policy}, "
            f"warmup={autoscale.warmup_s * 1e3:.1f}ms, "
            f"replica-seconds={autoscale.replica_seconds:.3f}"
        )
    else:
        peak = report.num_replicas
        header = f"{title}: static fleet of {report.num_replicas}"
    window = horizon / buckets if horizon > 0 else 1.0
    table = TextTable(
        ["window (ms)", "replicas", "fleet", "completions", f"SLA<{sla_s * 1e3:.0f}ms %"],
        title=header,
    )
    for bucket in range(buckets):
        start = bucket * window
        end = horizon if bucket == buckets - 1 else (bucket + 1) * window
        inside = [
            latency
            for time, latency in samples
            if start < time <= end or (bucket == 0 and time == 0.0)
        ]
        distribution = LatencyDistribution(inside, allow_empty=True)
        midpoint = (start + end) / 2.0
        replicas = (
            autoscale.replicas_at(midpoint) if autoscale is not None else report.num_replicas
        )
        bar = "#" * max(1, round(bar_width * replicas / max(peak, 1)))
        table.add_row(
            [
                f"{start * 1e3:7.1f}-{end * 1e3:7.1f}",
                replicas,
                bar,
                len(inside),
                100.0 * distribution.sla_attainment(sla_s),
            ]
        )
    return table.render()


@st.composite
def runs(draw):
    """Completion samples of a fake report, many of them on bucket edges."""
    buckets = draw(st.integers(min_value=1, max_value=16))
    horizon = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.37, 1.0, 3.0]))
    window = horizon / buckets if horizon > 0 else 1.0
    edges = [bucket * window for bucket in range(buckets + 1)] + [0.0, horizon]
    on_edge = st.sampled_from(edges)
    anywhere = st.floats(min_value=0.0, max_value=max(horizon, 1e-9))
    times = draw(st.lists(st.one_of(on_edge, on_edge, anywhere), min_size=1, max_size=60))
    latencies = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.02),
            min_size=len(times),
            max_size=len(times),
        )
    )
    replicas = draw(st.integers(min_value=1, max_value=3))
    # Spread the samples over the replicas, each in completion order.
    per_replica = [[] for _ in range(replicas)]
    for index, sample in enumerate(zip(times, latencies)):
        per_replica[index % replicas].append(sample)
    return buckets, per_replica, draw(st.booleans())


def fake_report(per_replica, elastic):
    replicas = [
        SimpleNamespace(completion_samples=lambda samples=samples: list(samples))
        for samples in per_replica
    ]
    autoscale = None
    if elastic:
        horizon = max(time for samples in per_replica for time, _ in samples)
        autoscale = AutoscaleReport(
            policy="scheduled",
            control_interval_s=1e-3,
            warmup_s=2e-3,
            timeline=((0.0, 1), (horizon / 2.0, 3)),
            replica_seconds=1.5,
            peak_replicas=3,
            scale_up_events=1,
            scale_down_events=0,
            busy_energy_joules=0.0,
            idle_energy_joules=0.0,
        )
    return SimpleNamespace(
        per_replica=replicas, num_replicas=len(replicas), autoscale=autoscale
    )


@given(run=runs(), sla_ms=st.sampled_from([1.0, 5.0, 10.0]))
@settings(max_examples=200, deadline=None)
def test_bisected_buckets_render_like_the_filter(run, sla_ms):
    buckets, per_replica, elastic = run
    report = fake_report(per_replica, elastic)
    sla_s = sla_ms * 1e-3
    assert render_autoscale_timeline(report, sla_s, buckets=buckets) == reference_timeline(
        report, sla_s, buckets=buckets
    )


def test_edge_and_zero_samples_land_where_the_filter_put_them():
    # Time 0 joins bucket 0; a sample on an inner edge joins the bucket it
    # closes; the horizon sample joins the clamped last bucket.
    samples = [(0.0, 1e-3), (0.25, 1e-3), (0.5, 1e-3), (0.5, 9e-3), (1.0, 1e-3)]
    report = fake_report([samples], elastic=False)
    rendered = render_autoscale_timeline(report, 5e-3, buckets=4)
    assert rendered == reference_timeline(report, 5e-3, buckets=4)
    rows = rendered.splitlines()[4:-1]
    counts = [int(row.split("|")[4]) for row in rows]
    assert counts == [2, 2, 0, 1]
