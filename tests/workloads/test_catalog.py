"""Tests for the workload spec parser and catalog."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    ARRIVAL_CATALOG,
    SCENARIO_CATALOG,
    TRACE_CATALOG,
    UPDATE_SCENARIO_CATALOG,
    ConstantRateArrivals,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    ReplayArrivals,
    UniformTrace,
    WorkingSetTrace,
    ZipfianTrace,
    parse_arrival_spec,
    parse_trace_spec,
    parse_workload_spec,
    resolve_fault_spec,
    resolve_update_spec,
)
from repro.workloads.catalog import find_scenario


class TestArrivalSpecs:
    def test_poisson(self):
        process = parse_arrival_spec("poisson:30000")
        assert isinstance(process, PoissonArrivals)
        assert process.rate_qps == 30_000.0

    def test_constant(self):
        assert isinstance(parse_arrival_spec("constant:100"), ConstantRateArrivals)

    def test_bursty_with_defaults_and_overrides(self):
        process = parse_arrival_spec("bursty:on=50000,mean_on=0.02")
        assert isinstance(process, OnOffArrivals)
        assert process.on_rate_qps == 50_000.0
        assert process.mean_on_s == 0.02
        assert process.off_rate_qps == 0.0  # default

    def test_diurnal(self):
        process = parse_arrival_spec("diurnal:trough=1000,peak=9000,period=2")
        assert isinstance(process, DiurnalArrivals)
        assert process.peak_qps == 9_000.0

    def test_replay(self):
        process = parse_arrival_spec("replay:0.001,0.002,0.0035")
        assert isinstance(process, ReplayArrivals)
        assert len(process.arrival_times_s) == 3

    def test_case_insensitive_kind(self):
        assert isinstance(parse_arrival_spec("POISSON:10"), PoissonArrivals)

    def test_positional_bodies_also_take_their_key(self):
        assert parse_arrival_spec("poisson:rate=30000") == parse_arrival_spec("poisson:30000")
        assert parse_arrival_spec("constant:rate=1e4").rate_qps == 10_000.0
        assert parse_trace_spec("zipf:alpha=1.3").alpha == 1.3

    def test_errors(self):
        with pytest.raises(ConfigurationError, match="unknown arrival"):
            parse_arrival_spec("sawtooth:1")
        with pytest.raises(ConfigurationError, match="rate"):
            parse_arrival_spec("poisson:fast")
        with pytest.raises(ConfigurationError, match="unknown bursty parameter"):
            parse_arrival_spec("bursty:warp=9")
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_arrival_spec("bursty:40000")
        with pytest.raises(ConfigurationError, match="not a number"):
            parse_arrival_spec("diurnal:peak=tall")
        with pytest.raises(ConfigurationError):
            parse_arrival_spec("replay:")
        with pytest.raises(ConfigurationError):
            parse_arrival_spec("replay:a,b")


class TestTraceSpecs:
    def test_uniform(self):
        assert isinstance(parse_trace_spec("uniform"), UniformTrace)
        with pytest.raises(ConfigurationError):
            parse_trace_spec("uniform:1")

    def test_zipf(self):
        model = parse_trace_spec("zipf:1.3")
        assert isinstance(model, ZipfianTrace)
        assert model.alpha == 1.3
        assert parse_trace_spec("zipf").alpha == 1.05

    def test_hotcold(self):
        model = parse_trace_spec("hotcold:frac=0.1,weight=0.8")
        assert isinstance(model, WorkingSetTrace)
        assert model.hot_fraction == 0.1
        assert model.hot_weight == 0.8

    def test_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown trace"):
            parse_trace_spec("fractal")


class TestWorkloadSpec:
    def test_composes_both(self):
        workload = parse_workload_spec("poisson:5000", "zipf:1.1")
        assert isinstance(workload.arrivals, PoissonArrivals)
        assert isinstance(workload.trace, ZipfianTrace)


class TestCatalogCoverage:
    def test_every_entry_example_parses(self):
        for entry in ARRIVAL_CATALOG.values():
            assert parse_arrival_spec(entry.example) is not None
        for entry in TRACE_CATALOG.values():
            assert parse_trace_spec(entry.example) is not None

    def test_every_scenario_spec_parses(self):
        for scenario in SCENARIO_CATALOG.values():
            schedule = resolve_fault_spec(scenario.name)
            assert schedule is not None and not schedule.empty
            assert resolve_fault_spec(scenario.spec).faults == schedule.faults
            assert parse_workload_spec(scenario.arrival_spec, scenario.trace_spec)
        for scenario in UPDATE_SCENARIO_CATALOG.values():
            updates = resolve_update_spec(scenario.name)
            assert updates is not None
            assert resolve_update_spec(scenario.spec) == updates
            assert parse_workload_spec(scenario.arrival_spec, scenario.trace_spec)

    def test_scenario_names_resolve_in_any_case(self):
        assert find_scenario(SCENARIO_CATALOG, " Region-Failover ").name == "region-failover"
        assert find_scenario(UPDATE_SCENARIO_CATALOG, "crash:at=0.1") is None
        assert find_scenario(SCENARIO_CATALOG, None) is None

    def test_render_workload_catalog(self):
        from repro.analysis import render_workload_catalog

        text = render_workload_catalog()
        for kind in ARRIVAL_CATALOG:
            assert kind in text
        for kind in TRACE_CATALOG:
            assert kind in text
