"""Chaos wiring: CLI ``--faults``, catalog scenarios, grids, rendering."""

import pytest

from repro.chaos import FaultSchedule
from repro.analysis import render_incident_timeline
from repro.cli import main
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.errors import ConfigurationError, SimulationError
from repro.experiment import Experiment
from repro.workloads import (
    SCENARIO_CATALOG,
    PoissonArrivals,
    Workload,
    resolve_fault_spec,
)

WORKLOAD = Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady")


def faulted_grid(faults, num_requests):
    """A one-point cpu x DLRM(1) grid served under ``faults``."""
    experiment = Experiment(HARPV2_SYSTEM).backends("cpu").models([DLRM1]).workloads(WORKLOAD)
    return experiment.serve(faults=faults, num_requests=num_requests)


class TestScenarioCatalog:
    def test_the_two_named_scenarios_exist(self):
        assert set(SCENARIO_CATALOG) >= {"region-failover", "cascading-brownout"}

    @pytest.mark.parametrize("name", sorted(SCENARIO_CATALOG))
    def test_every_scenario_parses_and_builds(self, name):
        scenario = SCENARIO_CATALOG[name]
        schedule = resolve_fault_spec(scenario.spec)
        assert isinstance(schedule, FaultSchedule)
        assert not schedule.empty
        workload = scenario.workload()
        assert workload.arrivals is not None

    def test_resolve_accepts_scenario_names_and_raw_specs(self):
        named = resolve_fault_spec("region-failover")
        assert isinstance(named, FaultSchedule)
        raw = resolve_fault_spec("crash:at=0.05,restart=0.01")
        assert isinstance(raw, FaultSchedule)
        assert resolve_fault_spec("off") is None
        assert resolve_fault_spec(None) is None

    def test_unknown_spec_still_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_fault_spec("rack-fire")


class TestChaosGrid:
    def test_experiment_chaos_populates_incidents(self):
        result = (
            Experiment(HARPV2_SYSTEM)
            .backends("cpu")
            .models([DLRM1])
            .workloads(WORKLOAD)
            .serve(faults="crash:at=0.01,restart=0.01", num_requests=400, seed=3)
        )
        ((key, report),) = list(result)
        assert report.incidents is not None
        assert len(report.incidents.incidents) == 1
        assert report.autoscale.crashes == 1

    def test_serve_faults_accept_schedule_objects_and_strings(self):
        parsed = faulted_grid("crash:at=0.01", num_requests=300)
        from repro.chaos import ReplicaCrash

        direct = faulted_grid(FaultSchedule([ReplicaCrash(at_s=0.01)]), num_requests=300)
        assert len(parsed) == len(direct) == 1

    def test_serve_faults_reject_non_schedules(self):
        with pytest.raises(ConfigurationError):
            faulted_grid(42, num_requests=300)

    def test_experiment_chaos_requires_workloads(self):
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).backends("cpu").models([DLRM1]).serve(
                faults="crash:at=0.01", num_requests=300
            )


class TestRenderIncidentTimeline:
    def test_renders_rows_totals_and_notes(self):
        result = faulted_grid(
            "crash:at=0.01,inflight=shed;brownout:at=0.03,for=0.01,slow=3",
            num_requests=600,
        )
        ((_, report),) = list(result)
        rendered = render_incident_timeline(report, sla_s=5e-3)
        assert "Incident timeline" in rendered
        assert "crash replica:" in rendered
        assert "brownout replica:" in rendered
        assert "totals:" in rendered
        assert "worst time-to-recover" in rendered

    def test_faultless_report_raises(self):
        with pytest.raises(ValueError):
            render_incident_timeline(None, sla_s=5e-3)


class TestServeFaultsCLI:
    def test_raw_spec_prints_the_incident_timeline(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "cpu",
                    "--model",
                    "DLRM1",
                    "--requests",
                    "500",
                    "--replicas",
                    "2",
                    "--faults",
                    "crash:at=0.01,restart=0.01",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(chaos)" in out
        assert "Incident timeline" in out
        assert "crash replica:1" in out

    def test_scenario_name_resolves_and_announces_itself(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "cpu",
                    "--model",
                    "DLRM1",
                    "--requests",
                    "500",
                    "--replicas",
                    "3",
                    "--faults",
                    "region-failover",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos scenario 'region-failover'" in out
        assert "Incident timeline" in out

    def test_autoscaled_serving_with_faults(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "cpu",
                    "--model",
                    "DLRM1",
                    "--requests",
                    "500",
                    "--autoscale",
                    "queue:high=8,low=1",
                    "--max-replicas",
                    "3",
                    "--faults",
                    "crash:at=0.01,restart=0.01",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Autoscale timeline" in out
        assert "Incident timeline" in out

    def test_sharded_serving_with_shard_loss(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "centaur",
                    "--model",
                    "DLRM2",
                    "--requests",
                    "500",
                    "--shards",
                    "4",
                    "--faults",
                    "shard-loss:at=0.005,restore=0.01,failover=rehash",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Incident timeline" in out
        assert "shard-loss shard:0" in out

    def test_the_incident_table_uses_the_run_sla(self, capsys):
        # One run, one budget: --sla governs the serving table and the
        # incident header alike.
        argv = [
            "serve",
            "--backend", "cpu",
            "--model", "DLRM2",
            "--workload", "poisson:40000",
            "--requests", "4000",
            "--replicas", "3",
            "--faults", "crash:at=0.02,restart=0.01",
            "--sla", "0.002",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "SLA<2ms %" in out
        header = next(line for line in out.splitlines() if line.startswith("Incident timeline"))
        assert "sla=2.0ms," in header

    def test_faults_off_keeps_the_plain_path(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "cpu",
                    "--model",
                    "DLRM1",
                    "--requests",
                    "400",
                    "--faults",
                    "off",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Incident timeline" not in out
        assert "(chaos)" not in out

    def test_bad_fault_spec_fails_cleanly(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "cpu",
                    "--model",
                    "DLRM1",
                    "--requests",
                    "400",
                    "--faults",
                    "meteor:at=0.1",
                ]
            )
            == 2
        )
        assert "unknown fault kind" in capsys.readouterr().err

    def test_fleet_fault_on_sharded_group_fails_cleanly(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--backend",
                    "centaur",
                    "--model",
                    "DLRM2",
                    "--requests",
                    "400",
                    "--shards",
                    "4",
                    "--faults",
                    "crash:at=0.01",
                ]
            )
            == 2
        )
        assert "sharded group" in capsys.readouterr().err

    def test_list_workloads_shows_the_scenarios(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "chaos scenarios" in out
        assert "region-failover" in out
        assert "cascading-brownout" in out
