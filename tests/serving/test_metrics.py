"""Tests for the serving metrics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.serving.metrics import LatencyDistribution, ServingReport


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

    def test_empty_distribution_statistics_raise_clearly(self):
        empty = LatencyDistribution([], allow_empty=True)
        for query in (
            lambda: empty.mean_s,
            lambda: empty.max_s,
            lambda: empty.p99_s,
            lambda: empty.percentile(50.0),
            lambda: empty.percentiles((50.0, 99.0)),
            # No completed request, so no attainment either.
            lambda: empty.sla_attainment(1e-3),
        ):
            with pytest.raises(SimulationError):
                query()


class TestServingReport:
    def _report(self):
        return ServingReport(
            design_point="Centaur",
            model_name="DLRM(1)",
            completed_requests=100,
            makespan_s=0.2,
            average_batch_size=10.0,
            device_busy_s=0.1,
            energy_joules=7.4,
            ordered_latency_s=np.full(100, 1e-3),
        )

    def test_derived_metrics(self):
        report = self._report()
        assert report.device_utilization == pytest.approx(0.5)
        assert report.energy_per_request_joules == pytest.approx(0.074)
