"""Cross-cutting property-based invariants over the performance models.

These hypothesis tests exercise the runners over arbitrary (model shape,
batch size) combinations and check invariants that must hold regardless of
calibration constants: accounting identities, monotonicity in work, and
consistency between the different ways of computing the same quantity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import get_backend
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.gpu import CPUGPURunner
from repro.serving import (
    EWMAPolicy,
    Fleet,
    FleetSpec,
    QueueDepthPolicy,
    RoundRobinDispatcher,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    TimeoutBatching,
)
from repro.workloads import DiurnalArrivals, OnOffArrivals, PoissonArrivals, Workload


def arbitrary_model(num_tables, gathers, rows_scale):
    return homogeneous_dlrm(
        name=f"prop-{num_tables}-{gathers}-{rows_scale}",
        num_tables=num_tables,
        rows_per_table=rows_scale * 10_000,
        gathers_per_table=gathers,
    )


MODEL_STRATEGY = st.builds(
    arbitrary_model,
    num_tables=st.integers(min_value=1, max_value=60),
    gathers=st.integers(min_value=1, max_value=100),
    rows_scale=st.integers(min_value=1, max_value=60),
)
BATCH_STRATEGY = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256])


class TestAccountingIdentities:
    @given(model=MODEL_STRATEGY, batch=BATCH_STRATEGY)
    @settings(max_examples=25, deadline=None)
    def test_energy_is_power_times_latency(self, model, batch):
        for runner in (
            CPUOnlyRunner(HARPV2_SYSTEM),
            CPUGPURunner(HARPV2_SYSTEM),
            CentaurRunner(HARPV2_SYSTEM),
        ):
            result = runner.run(model, batch)
            assert result.energy_joules == pytest.approx(
                result.power_watts * result.latency_seconds, rel=1e-9
            )
            assert result.latency_seconds == pytest.approx(
                sum(result.breakdown.stages.values()), rel=1e-9
            )
            assert result.latency_seconds > 0

    @given(model=MODEL_STRATEGY, batch=BATCH_STRATEGY)
    @settings(max_examples=25, deadline=None)
    def test_speedup_reciprocity(self, model, batch):
        cpu = CPUOnlyRunner(HARPV2_SYSTEM).run(model, batch)
        centaur = CentaurRunner(HARPV2_SYSTEM).run(model, batch)
        forward = centaur.speedup_over(cpu)
        backward = cpu.speedup_over(centaur)
        assert forward * backward == pytest.approx(1.0, rel=1e-9)

    @given(model=MODEL_STRATEGY, batch=BATCH_STRATEGY)
    @settings(max_examples=25, deadline=None)
    def test_useful_bytes_match_configuration(self, model, batch):
        cpu = CPUOnlyRunner(HARPV2_SYSTEM).run(model, batch)
        centaur = CentaurRunner(HARPV2_SYSTEM).run(model, batch)
        expected = model.embedding_bytes_per_sample() * batch
        assert cpu.embedding_traffic.useful_bytes == pytest.approx(expected)
        assert centaur.embedding_traffic.useful_bytes == pytest.approx(expected)


class TestMonotonicity:
    @given(model=MODEL_STRATEGY)
    @settings(max_examples=15, deadline=None)
    def test_latency_monotone_in_batch(self, model):
        for runner in (CPUOnlyRunner(HARPV2_SYSTEM), CentaurRunner(HARPV2_SYSTEM)):
            latencies = [runner.run(model, batch).latency_seconds for batch in (4, 16, 64, 256)]
            assert latencies == sorted(latencies)

    @given(
        gathers=st.integers(min_value=1, max_value=60),
        batch=st.sampled_from([4, 16, 64]),
    )
    @settings(max_examples=15, deadline=None)
    def test_more_gathers_more_embedding_time(self, gathers, batch):
        base = arbitrary_model(8, gathers, 10)
        heavier = arbitrary_model(8, gathers * 2, 10)
        for runner in (CPUOnlyRunner(HARPV2_SYSTEM), CentaurRunner(HARPV2_SYSTEM)):
            assert (
                runner.run(heavier, batch).breakdown.get("EMB")
                > runner.run(base, batch).breakdown.get("EMB")
            )


# -- serving invariants: random workload x policy x cluster ------------
def _arbitrary_workload(kind, rate_scale):
    rate = 10_000.0 * rate_scale
    if kind == "poisson":
        arrivals = PoissonArrivals(rate_qps=rate)
    elif kind == "bursty":
        arrivals = OnOffArrivals(
            on_rate_qps=2.0 * rate, off_rate_qps=0.5 * rate,
            mean_on_s=0.01, mean_off_s=0.01,
        )
    else:
        arrivals = DiurnalArrivals(
            trough_qps=0.3 * rate, peak_qps=2.0 * rate, period_s=0.1
        )
    return Workload(arrivals=arrivals, name=f"prop-{kind}-{rate_scale}")


def _arbitrary_policy(kind):
    if kind == "queue":
        return QueueDepthPolicy(high_watermark=24.0, low_watermark=2.0, cooldown_s=0.01)
    if kind == "util":
        return TargetUtilizationPolicy(target=0.6, deadband=0.1, cooldown_s=0.01)
    if kind == "ewma":
        return EWMAPolicy(alpha=0.4, headroom=1.2, replica_capacity_qps=20_000.0)
    if kind == "schedule":
        return ScheduledPolicy([(0.0, 1), (0.02, 3), (0.06, 2)])
    return None


WORKLOAD_KIND = st.sampled_from(["poisson", "bursty", "diurnal"])
RATE_SCALE = st.sampled_from([1, 2, 4])
POLICY_KIND = st.sampled_from(["queue", "util", "ewma", "schedule"])
FLEET_BOUNDS = st.tuples(
    st.integers(min_value=1, max_value=2),  # min replicas
    st.integers(min_value=2, max_value=4),  # max replicas
)
STREAM_SEED = st.integers(min_value=0, max_value=2**16)
BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)


class TestServingInvariants:
    @given(
        workload_kind=WORKLOAD_KIND,
        rate_scale=RATE_SCALE,
        policy_kind=POLICY_KIND,
        bounds=FLEET_BOUNDS,
        seed=STREAM_SEED,
    )
    @settings(max_examples=20, deadline=None)
    def test_conservation_and_replica_count_bounds(
        self, workload_kind, rate_scale, policy_kind, bounds, seed
    ):
        minimum, maximum = bounds
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(
                policy=_arbitrary_policy(policy_kind),
                min_replicas=minimum,
                max_replicas=maximum,
                control_interval_s=5e-3,
                warmup_s=2e-3,
                batching=BATCHING,
            ),
        )
        report = cluster.serve_workload(
            _arbitrary_workload(workload_kind, rate_scale),
            num_requests=600,
            seed=seed,
        )
        outcome = cluster.last_outcome
        # Conservation: everything scheduled completed, nothing in flight.
        assert outcome.scheduled == outcome.completed == 600
        assert report.completed_requests == 600
        assert sum(r.completed_requests for r in report.per_replica) == 600
        # Replica counts: monotone-in-time change points, never negative,
        # always within the controller's bounds.
        autoscale = report.autoscale
        times = [time for time, _ in autoscale.timeline]
        counts = [count for _, count in autoscale.timeline]
        assert times == sorted(times)
        assert all(minimum <= count <= maximum for count in counts)
        assert all(count >= 0 for count in counts)
        assert autoscale.peak_replicas == max(counts)
        assert autoscale.replica_seconds >= 0.0
        # The replica-hours bill cannot exceed paying the whole pool for
        # the whole run (still-commissioned replicas bill until the final
        # control tick, up to one interval past the last completion), nor
        # undercut the busy time actually executed.
        horizon = max(report.makespan_s, times[-1]) + autoscale.control_interval_s
        assert autoscale.replica_seconds <= maximum * horizon + 1e-9
        busy = sum(r.device_busy_s for r in report.per_replica)
        assert autoscale.replica_seconds >= busy - 1e-9

    @given(
        workload_kind=WORKLOAD_KIND,
        rate_scale=RATE_SCALE,
        replicas=st.integers(min_value=1, max_value=3),
        seed=STREAM_SEED,
    )
    @settings(max_examples=12, deadline=None)
    def test_autoscaling_disabled_is_bit_identical_to_static(
        self, workload_kind, rate_scale, replicas, seed
    ):
        workload = _arbitrary_workload(workload_kind, rate_scale)
        backend = get_backend("cpu", HARPV2_SYSTEM)
        static = Fleet(
            backend,
            DLRM1,
            FleetSpec(replicas=replicas, batching=BATCHING, dispatcher=RoundRobinDispatcher()),
        ).serve_workload(workload, num_requests=400, seed=seed)
        disabled = Fleet(
            backend,
            DLRM1,
            FleetSpec(
                replicas=replicas,
                policy=None,
                min_replicas=replicas,
                max_replicas=replicas + 2,
                batching=BATCHING,
                dispatcher=RoundRobinDispatcher(),
            ),
        ).serve_workload(workload, num_requests=400, seed=seed)
        assert disabled.autoscale is None
        assert disabled.completed_requests == static.completed_requests
        assert disabled.num_replicas == static.num_replicas
        np.testing.assert_array_equal(
            disabled.latency.samples_s, static.latency.samples_s
        )
        assert disabled.total_energy_joules == static.total_energy_joules
        for mine, theirs in zip(disabled.per_replica, static.per_replica):
            assert mine.completed_requests == theirs.completed_requests
            assert mine.device_busy_s == theirs.device_busy_s
            assert mine.executed_batches == theirs.executed_batches


class TestPhysicalBounds:
    @given(model=MODEL_STRATEGY, batch=BATCH_STRATEGY)
    @settings(max_examples=25, deadline=None)
    def test_throughputs_respect_hardware_limits(self, model, batch):
        cpu = CPUOnlyRunner(HARPV2_SYSTEM)
        centaur = CentaurRunner(HARPV2_SYSTEM)
        assert (
            cpu.effective_embedding_throughput(model, batch)
            <= HARPV2_SYSTEM.memory.peak_bandwidth
        )
        assert (
            centaur.effective_embedding_throughput(model, batch)
            <= HARPV2_SYSTEM.link.effective_bandwidth
        )

    @given(model=MODEL_STRATEGY, batch=BATCH_STRATEGY)
    @settings(max_examples=25, deadline=None)
    def test_llc_counters_consistent(self, model, batch):
        result = CPUOnlyRunner(HARPV2_SYSTEM).run(model, batch)
        result.embedding_traffic.llc.validate()
        result.mlp_traffic.llc.validate()
        assert 0.0 <= result.embedding_traffic.llc.miss_rate <= 1.0
