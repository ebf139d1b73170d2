"""Tests for the backends x workloads serving grid (Experiment.serve)."""

import pytest

from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.experiment import Experiment, ExperimentResult
from repro.serving import FleetSpec
from repro.workloads import (
    ConstantRateArrivals,
    PoissonArrivals,
    TrafficMix,
    Workload,
)

FAST = Workload(arrivals=ConstantRateArrivals(rate_qps=20_000.0), name="steady")
MIX = Workload(
    arrivals=PoissonArrivals(rate_qps=10_000.0),
    mix=TrafficMix.of((DLRM1, 0.5), (DLRM2, 0.5)),
    name="blend",
)


class TestExperimentServe:
    def test_grid_spans_backends_and_workloads(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(FAST, MIX)
            .serve(num_requests=400, seed=1)
        )
        assert isinstance(grid, ExperimentResult)
        assert len(grid) == 4
        assert grid.axis("backend") == ["cpu", "centaur"]
        assert grid.axis("workload") == ["steady", "blend"]

    def test_get_and_filter(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("centaur")
            .models(DLRM2)
            .workloads(FAST)
            .serve(num_requests=300, seed=0)
        )
        report = grid.get("centaur", "steady")
        assert report.completed_requests == 300
        assert grid.get("centaur", "steady", DLRM2.name) is report
        assert grid.filter(backend="centaur") == [report]
        with pytest.raises(KeyError):
            grid.get("centaur", "nope")

    def test_backend_lookups_resolve_labels_and_reject_typos(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("centaur")
            .models(DLRM2)
            .workloads(FAST)
            .serve(num_requests=200, seed=0)
        )
        report = grid.get("centaur", "steady")
        # Design-point labels address the same point, as on the batch grid.
        assert grid.get("Centaur", "steady") is report
        assert grid.filter(backend="Centaur") == [report]
        # A typo fails loudly rather than matching nothing.
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.filter(backend="centuar")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.get("centuar", "steady")

    def test_mix_workload_reports_blend_label(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("centaur")
            .models(DLRM2)
            .workloads(MIX)
            .serve(num_requests=400, seed=2)
        )
        report = grid.get("centaur", "blend")
        assert report.model_name == MIX.mix.label
        assert report.completed_requests == 400

    def test_deterministic_across_runs(self):
        def run():
            return (
                Experiment(HARPV2_SYSTEM)
                .backends("centaur")
                .models(DLRM2)
                .workloads(FAST)
                .serve(num_requests=200, seed=7)
            )

        assert run().get("centaur", "steady").latency.p99_s == run().get(
            "centaur", "steady"
        ).latency.p99_s

    def test_replica_fanout(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu")
            .models(DLRM2)
            .workloads(FAST)
            .serve(FleetSpec(replicas=3), num_requests=400, seed=0)
        )
        report = grid.get("cpu", "steady")
        assert report.num_replicas == 3
        assert report.completed_requests == 400

    def test_to_csv_one_row_per_point(self):
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(FAST)
            .serve(num_requests=200, seed=0)
        )
        lines = grid.to_csv().strip().splitlines()
        assert lines[0].startswith("backend,workload,model")
        assert len(lines) == 1 + len(grid)


class TestValidation:
    def test_serve_requires_workloads(self):
        with pytest.raises(SimulationError, match="workloads"):
            Experiment(HARPV2_SYSTEM).backends("cpu").serve(num_requests=10)

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(SimulationError, match="distinct"):
            Experiment(HARPV2_SYSTEM).workloads(
                Workload(arrivals=PoissonArrivals(1_000.0), name="dup"),
                Workload(arrivals=PoissonArrivals(2_000.0), name="dup"),
            )

    def test_alias_beside_canonical_name_serves_one_point(self):
        lines = []
        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu", "CPU-only")
            .models(DLRM2)
            .workloads(FAST)
            .progress(lines.append)
            .serve(num_requests=100, seed=0)
        )
        assert len(grid) == 1
        assert lines == ["[1/1] cpu steady DLRM(2) served"]

    def test_bare_rate_becomes_poisson_workload(self):
        experiment = Experiment(HARPV2_SYSTEM).workloads(5_000.0)
        assert len(experiment.grid_workloads) == 1
        assert experiment.grid_workloads[0].arrivals.mean_rate_qps == 5_000.0

    def test_invalid_replicas(self):
        with pytest.raises(SimulationError, match="replicas"):
            (
                Experiment(HARPV2_SYSTEM)
                .backends("cpu")
                .models(DLRM2)
                .workloads(FAST)
                .serve(FleetSpec(replicas=0), num_requests=10)
            )


class TestExperimentAutoscale:
    def test_grid_reports_carry_autoscale_accounting(self):
        from repro.serving import QueueDepthPolicy

        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(FAST)
            .serve(
                FleetSpec(
                    policy=QueueDepthPolicy(high_watermark=16.0, low_watermark=2.0),
                    max_replicas=3,
                ),
                num_requests=400,
                seed=1,
            )
        )
        assert len(grid) == 2
        for backend in ("cpu", "centaur"):
            report = grid.get(backend, "steady")
            assert report.completed_requests == 400
            assert report.autoscale is not None
            assert report.autoscale.policy == "queue-depth"
            assert report.replica_seconds > 0.0

    def test_warmup_defaults_to_the_backend_hint(self):
        from repro.backends import backend_registration
        from repro.serving import ScheduledPolicy

        grid = (
            Experiment(HARPV2_SYSTEM)
            .backends("centaur")
            .models(DLRM2)
            .workloads(FAST)
            .serve(
                FleetSpec(policy=ScheduledPolicy([(0.0, 1)]), max_replicas=2),
                num_requests=200,
                seed=0,
            )
        )
        report = grid.get("centaur", "steady")
        expected = backend_registration("centaur").capabilities.provision_warmup_s
        assert report.autoscale.warmup_s == expected

    def test_any_registered_backend_autoscales(self):
        # Capability flags describe a device; they do not gate the grid.
        from repro.backends import BackendCapabilities, register_backend
        from repro.backends.registry import unregister_backend
        from repro.cpu.cpu_runner import CPUOnlyRunner
        from repro.serving import QueueDepthPolicy

        register_backend(
            "plain-cpu-test",
            CPUOnlyRunner,
            design_point="PlainCPU",
            capabilities=BackendCapabilities(),
        )
        try:
            grid = (
                Experiment(HARPV2_SYSTEM)
                .backends("plain-cpu-test")
                .models(DLRM2)
                .workloads(FAST)
                .serve(FleetSpec(policy=QueueDepthPolicy()), num_requests=10)
            )
        finally:
            unregister_backend("plain-cpu-test")
        report = grid.get("plain-cpu-test", "steady")
        assert report.completed_requests == 10
        # The registration's zero warm-up hint reaches the fleet.
        assert report.autoscale.warmup_s == 0.0

    def test_autoscale_requires_workloads(self):
        from repro.serving import QueueDepthPolicy

        with pytest.raises(SimulationError, match="workloads"):
            Experiment(HARPV2_SYSTEM).backends("cpu").serve(
                FleetSpec(policy=QueueDepthPolicy()), num_requests=10
            )


class TestExperimentPlanCapacity:
    def test_plans_per_workload(self):
        plans = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu", "centaur")
            .models(DLRM2)
            .workloads(FAST)
            .plan_capacity(sla_s=5e-3, num_requests=2_000, seed=0)
        )
        assert set(plans) == {"steady"}
        plan = plans["steady"]
        assert {point.backend for point in plan.points} == {"cpu", "centaur"}
        assert plan.best() is not None
        assert plan.get("centaur").replicas <= plan.get("cpu").replicas

    def test_needs_exactly_one_model(self):
        with pytest.raises(SimulationError, match="one model"):
            (
                Experiment(HARPV2_SYSTEM)
                .backends("cpu")
                .models(DLRM1, DLRM2)
                .workloads(FAST)
                .plan_capacity(sla_s=5e-3, num_requests=100)
            )

    def test_explicit_model_overrides_the_axis(self):
        plans = (
            Experiment(HARPV2_SYSTEM)
            .backends("centaur")
            .models(DLRM1, DLRM2)
            .workloads(FAST)
            .plan_capacity(sla_s=5e-3, model=DLRM2, num_requests=1_000)
        )
        assert plans["steady"].model_name == DLRM2.name

    def test_requires_workloads(self):
        with pytest.raises(SimulationError, match="workloads"):
            Experiment(HARPV2_SYSTEM).backends("cpu").plan_capacity(
                sla_s=5e-3, num_requests=100
            )
