"""Tests for the serving metrics."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.serving.metrics import ExecutedBatch, LatencyDistribution, ServingReport


class TestLatencyDistribution:
    def test_basic_statistics(self):
        dist = LatencyDistribution([1e-3, 2e-3, 3e-3, 4e-3])
        assert len(dist) == 4
        assert dist.mean_s == pytest.approx(2.5e-3)
        assert dist.max_s == pytest.approx(4e-3)
        assert dist.p50_s == pytest.approx(2.5e-3)

    def test_percentiles_monotone(self):
        dist = LatencyDistribution([float(i) for i in range(1, 101)])
        assert dist.p50_s <= dist.p95_s <= dist.p99_s <= dist.max_s

    def test_sla_attainment(self):
        dist = LatencyDistribution([1.0, 2.0, 3.0, 4.0])
        assert dist.sla_attainment(2.5) == pytest.approx(0.5)
        assert dist.sla_attainment(10.0) == 1.0
        with pytest.raises(SimulationError):
            dist.sla_attainment(0.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            LatencyDistribution([])
        with pytest.raises(SimulationError):
            LatencyDistribution([1.0, -1.0])
        with pytest.raises(SimulationError):
            LatencyDistribution([1.0]).percentile(150.0)

    def test_empty_distribution_sla_attainment_is_vacuous(self):
        # Regression: this used to divide by zero. Empty windows (e.g. one
        # bucket of an autoscale timeline with no completions) attain any
        # SLA vacuously.
        empty = LatencyDistribution([], allow_empty=True)
        assert len(empty) == 0
        assert empty.sla_attainment(1e-3) == 1.0
        with pytest.raises(SimulationError):
            empty.sla_attainment(0.0)  # the budget must still be positive

    def test_empty_distribution_statistics_raise_clearly(self):
        empty = LatencyDistribution([], allow_empty=True)
        for query in (
            lambda: empty.mean_s,
            lambda: empty.max_s,
            lambda: empty.p99_s,
            lambda: empty.percentile(50.0),
            lambda: empty.percentiles((50.0, 99.0)),
        ):
            with pytest.raises(SimulationError):
                query()


class TestServingReport:
    def _report(self):
        return ServingReport(
            design_point="Centaur",
            model_name="DLRM(1)",
            offered_load_qps=1000.0,
            completed_requests=100,
            makespan_s=0.2,
            latency=LatencyDistribution([1e-3] * 100),
            queueing=LatencyDistribution([5e-4] * 100),
            average_batch_size=10.0,
            device_busy_s=0.1,
            energy_joules=7.4,
        )

    def test_derived_metrics(self):
        report = self._report()
        assert report.achieved_qps == pytest.approx(500.0)
        assert report.device_utilization == pytest.approx(0.5)
        assert report.energy_per_request_joules == pytest.approx(0.074)

    def test_completion_samples_pair_each_latency_with_its_batch_finish(self):
        batches = tuple(
            ExecutedBatch(
                ready_time_s=0.1 * index,
                start_time_s=0.1 * index,
                finish_time_s=0.1 * index + 0.03,
                batch_size=size,
            )
            for index, size in enumerate([3, 1, 4, 2])
        )
        latencies = tuple(1e-3 * (index + 1) for index in range(10))
        report = dataclasses.replace(
            self._report(), executed_batches=batches, ordered_latency_s=latencies
        )
        expected = []
        cursor = 0
        for batch in batches:
            for latency in latencies[cursor : cursor + batch.batch_size]:
                expected.append((batch.finish_time_s, latency))
            cursor += batch.batch_size
        samples = report.completion_samples()
        assert samples == expected
        # The batch's own float is shared, not copied once per request.
        assert all(mine is theirs for (mine, _), (theirs, _) in zip(samples, expected))
        assert self._report().completion_samples() == []
