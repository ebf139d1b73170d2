"""Tests for the capacity planner's minimal-fleet search."""

import pytest

from repro.backends import get_backend
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.errors import SimulationError
from repro.serving import CapacityPlanner, ClusterReport, Fleet, FleetSpec, TimeoutBatching
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)
WORKLOAD = Workload(arrivals=PoissonArrivals(rate_qps=60_000.0), name="steady")


def planner(**overrides) -> CapacityPlanner:
    defaults = dict(
        system=HARPV2_SYSTEM,
        sla_s=5e-3,
        target_attainment=0.99,
        max_replicas=16,
        batching=BATCHING,
        seed=0,
    )
    defaults.update(overrides)
    return CapacityPlanner(**defaults)


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(SimulationError):
            planner(sla_s=0.0)
        with pytest.raises(SimulationError):
            planner(target_attainment=0.0)
        with pytest.raises(SimulationError):
            planner(target_attainment=1.5)
        with pytest.raises(SimulationError):
            planner(max_replicas=0)

    def test_plan_needs_exactly_one_bound(self):
        with pytest.raises(SimulationError):
            planner().plan(WORKLOAD, DLRM2, backends=("cpu",))
        with pytest.raises(SimulationError):
            planner().plan(
                WORKLOAD, DLRM2, backends=("cpu",), duration_s=0.1, num_requests=100
            )


class TestMinimalSearch:
    def test_found_fleet_is_minimal(self):
        point = planner().plan_backend("cpu", DLRM2, WORKLOAD, num_requests=5_000)
        assert point.feasible
        assert point.replicas >= 1
        assert point.attainment >= 0.99

        def attainment(count):
            report = Fleet(
                get_backend("cpu", HARPV2_SYSTEM),
                DLRM2,
                FleetSpec(replicas=count, batching=BATCHING),
            ).serve_workload(WORKLOAD, num_requests=5_000, seed=0)
            return report.latency.sla_attainment(5e-3)

        # The chosen fleet meets the target and the next-smaller one fails.
        assert attainment(point.replicas) >= 0.99
        if point.replicas > 1:
            assert attainment(point.replicas - 1) < 0.99

    def test_search_is_logarithmic_not_linear(self):
        point = planner().plan_backend("cpu", DLRM2, WORKLOAD, num_requests=5_000)
        # Exponential probe + binary search: far fewer evaluations than
        # fleets in range, and no fleet evaluated twice.
        assert len(point.evaluated) == len(set(point.evaluated))
        assert len(point.evaluated) <= 2 * point.replicas.bit_length() + 2

    def test_infeasible_when_ceiling_too_low(self):
        heavy = Workload(arrivals=PoissonArrivals(rate_qps=500_000.0), name="heavy")
        point = planner(max_replicas=2, sla_s=1e-4).plan_backend(
            "cpu", DLRM2, heavy, num_requests=2_000
        )
        assert not point.feasible
        assert point.replicas is None
        assert point.attainment < 0.99

    def test_deterministic_across_runs(self):
        first = planner().plan_backend("cpu", DLRM2, WORKLOAD, num_requests=4_000)
        second = planner().plan_backend("cpu", DLRM2, WORKLOAD, num_requests=4_000)
        assert first == second


class TestPlan:
    def test_plans_every_backend_and_recommends(self):
        plan = planner().plan(
            WORKLOAD, DLRM2, backends=("cpu", "centaur"), num_requests=4_000
        )
        assert {point.backend for point in plan.points} == {"cpu", "centaur"}
        best = plan.best()
        assert best is not None
        # The paper's story: the FPGA meets the SLA with no more sockets
        # than the CPU baseline.
        assert plan.get("centaur").replicas <= plan.get("cpu").replicas
        assert best.replicas == min(point.replicas for point in plan.points)

    def test_aliases_plan_one_backend_under_its_canonical_name(self):
        plan = planner().plan(
            WORKLOAD, DLRM2, backends=("cpu", "CPU-only", "centaur"), num_requests=2_000
        )
        assert [point.backend for point in plan.points] == ["cpu", "centaur"]
        assert plan.get("cpu-only") is plan.get("CPU-only") is plan.get("cpu")

    def test_repeated_names_are_searched_once(self, monkeypatch):
        searcher = planner()
        searched = []
        search = searcher.plan_backend

        def counting(backend_name, **kwargs):
            searched.append(backend_name)
            return search(backend_name, **kwargs)

        monkeypatch.setattr(searcher, "plan_backend", counting)
        plan = searcher.plan(
            WORKLOAD, DLRM2, backends=("centaur", "Centaur", "centaur"), num_requests=2_000
        )
        assert searched == ["centaur"]
        assert [point.backend for point in plan.points] == ["centaur"]

    def test_get_raises_key_error_for_an_unplanned_backend(self):
        plan = planner().plan(WORKLOAD, DLRM2, backends=("centaur",), num_requests=2_000)
        with pytest.raises(KeyError):
            plan.get("cpu")

    def test_best_none_when_nothing_feasible(self):
        plan = planner(max_replicas=1, sla_s=1e-4).plan(
            Workload(arrivals=PoissonArrivals(rate_qps=500_000.0), name="heavy"),
            DLRM2,
            backends=("cpu",),
            num_requests=2_000,
        )
        assert plan.best() is None
        with pytest.raises(KeyError):
            plan.get("centaur")


class TestOneReplicaProbe:
    def test_one_replica_probe_reports_a_cluster_report(self, monkeypatch):
        reports = []
        serve_workload = Fleet.serve_workload

        def recording(self, *args, **kwargs):
            report = serve_workload(self, *args, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(Fleet, "serve_workload", recording)
        light = Workload(arrivals=PoissonArrivals(rate_qps=1_000.0), name="light")
        point = planner().plan_backend("centaur", DLRM2, light, num_requests=500)
        assert point.replicas == 1
        assert point.evaluated == (1,)
        (report,) = reports
        assert isinstance(report, ClusterReport)
        assert report.dispatcher == "round-robin"
        assert point.replica_seconds == report.makespan_s > 0.0
