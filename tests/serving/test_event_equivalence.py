"""Event-driven simulator vs. legacy open-loop replay: exact equivalence.

The serving stack was rebuilt on the discrete-event engine; for open-loop
batching policies the two implementations must agree *bit for bit* — same
batch boundaries, same per-request latencies, same energy — on any seeded
arrival stream.  The legacy replay is kept (tests/serving/legacy_oracle.py)
purely as this oracle.
"""

import pytest

from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.serving import FixedSizeBatching, Fleet, FleetSpec, TimeoutBatching
from repro.workloads import PoissonArrivals
from tests.serving.legacy_oracle import LegacyServingSimulator


def poisson_stream(rate_qps, n, seed):
    return PoissonArrivals(rate_qps=rate_qps).generate(num_requests=n, seed=seed)


def assert_reports_identical(event_report, legacy_report, compare_ready=True):
    """Batch boundaries, latencies and energy must match exactly (not approx)."""
    assert len(event_report.executed_batches) == len(legacy_report.executed_batches)
    for event_batch, legacy_batch in zip(
        event_report.executed_batches, legacy_report.executed_batches
    ):
        assert event_batch.batch_size == legacy_batch.batch_size
        assert event_batch.start_time_s == legacy_batch.start_time_s
        assert event_batch.finish_time_s == legacy_batch.finish_time_s
        if compare_ready:
            assert event_batch.ready_time_s == legacy_batch.ready_time_s
    assert (event_report.latency.samples_s == legacy_report.latency.samples_s).all()
    assert event_report.energy_joules == legacy_report.energy_joules
    assert event_report.makespan_s == legacy_report.makespan_s
    assert event_report.device_busy_s == legacy_report.device_busy_s
    assert event_report.average_batch_size == legacy_report.average_batch_size
    assert event_report.completed_requests == legacy_report.completed_requests


class TestTimeoutBatchingEquivalence:
    """The acceptance criterion: TimeoutBatching on a seeded Poisson stream."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("rate_qps", [8_000, 30_000, 60_000])
    def test_batch_boundaries_and_latencies_match(self, seed, rate_qps):
        policy = TimeoutBatching(window_s=1e-3, max_batch_size=32)
        stream = poisson_stream(rate_qps, 300, seed)
        runner = CentaurRunner(HARPV2_SYSTEM)
        event = Fleet(runner, DLRM2, FleetSpec(batching=policy)).serve(stream)
        legacy = LegacyServingSimulator(runner, DLRM2, batching=policy).serve(stream)
        assert_reports_identical(event, legacy)

    def test_overloaded_device_still_matches(self):
        """Saturation: batches queue behind the device, start > ready."""
        policy = TimeoutBatching(window_s=5e-4, max_batch_size=16)
        stream = poisson_stream(80_000, 400, seed=3)
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        event = Fleet(runner, DLRM1, FleetSpec(batching=policy)).serve(stream)
        legacy = LegacyServingSimulator(runner, DLRM1, batching=policy).serve(stream)
        assert_reports_identical(event, legacy)
        assert any(
            batch.start_time_s > batch.ready_time_s
            for batch in event.executed_batches
        )

    def test_default_policy_poisson_entrypoint_matches(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        event = Fleet(runner, DLRM2).serve_poisson(
            rate_qps=20_000, duration_s=0.05, seed=9
        )
        legacy = LegacyServingSimulator(runner, DLRM2).serve_poisson(
            rate_qps=20_000, duration_s=0.05, seed=9
        )
        assert_reports_identical(event, legacy)


class TestFixedSizeBatchingEquivalence:
    @pytest.mark.parametrize("seed", [1, 11])
    def test_wait_capped_policy_matches(self, seed):
        policy = FixedSizeBatching(batch_size=8, max_wait_s=2e-3)
        stream = poisson_stream(25_000, 250, seed)
        runner = CentaurRunner(HARPV2_SYSTEM)
        event = Fleet(runner, DLRM2, FleetSpec(batching=policy)).serve(stream)
        legacy = LegacyServingSimulator(runner, DLRM2, batching=policy).serve(stream)
        assert_reports_identical(event, legacy)

    def test_uncapped_policy_matches_except_trailing_ready_time(self):
        """With no wait cap the trailing partial batch closes at stream
        drain in the event world but is backdated by the legacy replay;
        execution and latencies still match exactly."""
        policy = FixedSizeBatching(batch_size=8)
        stream = poisson_stream(25_000, 251, seed=5)
        runner = CentaurRunner(HARPV2_SYSTEM)
        event = Fleet(runner, DLRM2, FleetSpec(batching=policy)).serve(stream)
        legacy = LegacyServingSimulator(runner, DLRM2, batching=policy).serve(stream)
        assert_reports_identical(event, legacy, compare_ready=False)


class TestClusterEquivalence:
    def test_round_robin_cluster_matches_legacy_modulo_split(self):
        """The legacy cluster split arrivals round-robin over sorted order
        and replayed each replica independently; the event-driven cluster
        with a RoundRobinDispatcher must reproduce it replica for replica."""
        policy = TimeoutBatching(window_s=1e-3, max_batch_size=32)
        runner = CentaurRunner(HARPV2_SYSTEM)
        stream = poisson_stream(45_000, 330, seed=13)
        num_replicas = 3

        cluster = Fleet(
            runner,
            DLRM2,
            FleetSpec(replicas=num_replicas, batching=policy),
        ).serve(stream)

        ordered = sorted(stream, key=lambda request: request.arrival_time_s)
        legacy_reports = []
        for index in range(num_replicas):
            sub_stream = ordered[index::num_replicas]
            legacy_reports.append(
                LegacyServingSimulator(runner, DLRM2, batching=policy).serve(sub_stream)
            )

        assert len(cluster.per_replica) == num_replicas
        for event_report, legacy_report in zip(cluster.per_replica, legacy_reports):
            assert_reports_identical(event_report, legacy_report)
