"""Tests for the single-device serving simulation."""

import pytest

from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError
from repro.serving import FixedSizeBatching, Fleet, FleetSpec, ServiceModel, TimeoutBatching
from repro.workloads import InferenceRequest, PoissonArrivals


def arrivals(times):
    return [InferenceRequest(request_id=i, arrival_time_s=t) for i, t in enumerate(times)]


class TestServeExplicitStream:
    def test_single_request_latency_is_batch1_latency(self):
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        simulator = Fleet(runner, DLRM1, FleetSpec(batching=FixedSizeBatching(batch_size=1)))
        report = simulator.serve(arrivals([0.0]))
        expected = runner.run(DLRM1, 1).latency_seconds
        assert report.latency.mean_s == pytest.approx(expected, rel=1e-9)
        assert report.completed_requests == 1
        assert report.average_batch_size == 1.0

    def test_queueing_delay_appears_under_contention(self):
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        simulator = Fleet(runner, DLRM1, FleetSpec(batching=FixedSizeBatching(batch_size=1)))
        # Two simultaneous arrivals: the second one waits for the first batch.
        report = simulator.serve(arrivals([0.0, 0.0]))
        batch1_latency = runner.run(DLRM1, 1).latency_seconds
        assert report.latency.max_s == pytest.approx(2 * batch1_latency, rel=1e-6)
        assert report.queueing.max_s == pytest.approx(batch1_latency, rel=1e-6)

    def test_all_requests_accounted_for(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        simulator = Fleet(
            runner,
            DLRM1,
            FleetSpec(batching=TimeoutBatching(window_s=1e-3, max_batch_size=8)),
        )
        stream = PoissonArrivals(rate_qps=20_000).generate(num_requests=200, seed=1)
        report = simulator.serve(stream)
        assert report.completed_requests == 200
        assert len(report.latency) == 200
        assert report.makespan_s >= stream[-1].arrival_time_s

    def test_energy_accumulates_per_batch(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        simulator = Fleet(runner, DLRM1, FleetSpec(batching=FixedSizeBatching(batch_size=2)))
        report = simulator.serve(arrivals([0.0, 0.0, 1.0, 1.0]))
        expected = 2 * runner.run(DLRM1, 2).energy_joules
        assert report.energy_joules == pytest.approx(expected, rel=1e-9)

    def test_empty_stream_rejected(self):
        simulator = Fleet(CPUOnlyRunner(HARPV2_SYSTEM), DLRM1)
        with pytest.raises(SimulationError):
            simulator.serve([])


class TestServePoisson:
    def test_reports_are_deterministic_for_a_seed(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        simulator = Fleet(runner, DLRM1)
        first = simulator.serve_poisson(rate_qps=5_000, duration_s=0.05, seed=3)
        second = simulator.serve_poisson(rate_qps=5_000, duration_s=0.05, seed=3)
        assert first.latency.p99_s == second.latency.p99_s
        assert first.completed_requests == second.completed_requests

    def test_tail_latency_grows_with_load(self):
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        simulator = Fleet(
            runner,
            DLRM2,
            FleetSpec(batching=TimeoutBatching(window_s=1e-3, max_batch_size=32)),
        )
        saturation = ServiceModel(runner, DLRM2).saturation_throughput()
        light = simulator.serve_poisson(rate_qps=0.2 * saturation, duration_s=0.3, seed=0)
        heavy = simulator.serve_poisson(rate_qps=0.9 * saturation, duration_s=0.3, seed=0)
        assert heavy.latency.p99_s > light.latency.p99_s
        assert heavy.device_utilization > light.device_utilization

    def test_centaur_meets_tighter_sla_than_cpu_at_same_load(self):
        """The serving-level consequence of Centaur's lower batch latency."""
        rate = 30_000.0
        batching = TimeoutBatching(window_s=1e-3, max_batch_size=64)
        cpu = Fleet(CPUOnlyRunner(HARPV2_SYSTEM), DLRM2, FleetSpec(batching=batching))
        centaur = Fleet(CentaurRunner(HARPV2_SYSTEM), DLRM2, FleetSpec(batching=batching))
        cpu_report = cpu.serve_poisson(rate_qps=rate, duration_s=0.2, seed=5)
        centaur_report = centaur.serve_poisson(rate_qps=rate, duration_s=0.2, seed=5)
        assert centaur_report.latency.p99_s < cpu_report.latency.p99_s
        assert centaur_report.energy_per_request_joules < cpu_report.energy_per_request_joules

    def test_saturation_throughput_positive_and_validated(self):
        service = ServiceModel(CentaurRunner(HARPV2_SYSTEM), DLRM1)
        assert service.saturation_throughput() > 10_000
        with pytest.raises(SimulationError):
            service.saturation_throughput(max_batch_size=0)

    def test_no_arrivals_rejected(self):
        simulator = Fleet(CentaurRunner(HARPV2_SYSTEM), DLRM1)
        with pytest.raises(SimulationError):
            simulator.serve_poisson(rate_qps=0.001, duration_s=0.001, seed=0)
