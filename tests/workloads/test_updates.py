"""Unit tests for embedding update streams and their spec grammar."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.config.models import homogeneous_dlrm
from repro.errors import ConfigurationError
from repro.workloads import (
    PoissonArrivals,
    UPDATE_SCENARIO_CATALOG,
    UpdateProcess,
    parse_update_spec,
    resolve_update_spec,
)
from repro.workloads.traces import UniformTrace, ZipfianTrace

MODEL = homogeneous_dlrm(
    name="updates-test",
    num_tables=4,
    rows_per_table=10_000,
    gathers_per_table=4,
    embedding_dim=32,
)


def take(process, n, seed=0, default_trace=None):
    return list(
        itertools.islice(process.events(MODEL, seed=seed, default_trace=default_trace), n)
    )


class TestDeterminism:
    def test_equal_processes_produce_identical_streams(self):
        a = UpdateProcess(arrivals=5_000, rows_per_update=8, mode="invalidate")
        b = UpdateProcess(arrivals=5_000, rows_per_update=8, mode="invalidate")
        for left, right in zip(take(a, 50, seed=7), take(b, 50, seed=7)):
            assert left.sequence == right.sequence
            assert left.time_s == right.time_s
            assert left.table_index == right.table_index
            assert np.array_equal(left.rows, right.rows)

    def test_different_seeds_produce_different_streams(self):
        process = UpdateProcess(arrivals=5_000, rows_per_update=8)
        first = take(process, 50, seed=1)
        second = take(process, 50, seed=2)
        assert [e.time_s for e in first] != [e.time_s for e in second]

    def test_times_are_monotone_and_sequences_count_up(self):
        process = UpdateProcess(arrivals=5_000, rows_per_update=4)
        events = take(process, 80, seed=3)
        times = [event.time_s for event in events]
        assert times == sorted(times)
        assert [event.sequence for event in events] == list(range(80))


class TestRowSkew:
    def test_default_trace_shapes_the_drawn_rows(self):
        """With a zipf default trace the pushed rows concentrate on the head."""
        process = UpdateProcess(arrivals=5_000, rows_per_update=16)
        uniform_rows = Counter(
            int(row)
            for event in take(process, 200, seed=9, default_trace=UniformTrace())
            for row in event.rows
        )
        zipf_rows = Counter(
            int(row)
            for event in take(
                process, 200, seed=9, default_trace=ZipfianTrace(alpha=1.5)
            )
            for row in event.rows
        )
        assert max(zipf_rows.values()) > 3 * max(uniform_rows.values())

    def test_explicit_trace_overrides_the_default(self):
        skewed = UpdateProcess(
            arrivals=5_000, rows_per_update=16, trace=ZipfianTrace(alpha=1.5)
        )
        rows = Counter(
            int(row)
            for event in take(skewed, 200, seed=9, default_trace=UniformTrace())
            for row in event.rows
        )
        assert max(rows.values()) > 10  # zipf head, not uniform spread

    def test_tables_are_weighted_by_row_count(self):
        import dataclasses

        base = homogeneous_dlrm(
            name="updates-weighted",
            num_tables=2,
            rows_per_table=1_000,
            gathers_per_table=2,
        )
        big = dataclasses.replace(base.tables[0], num_rows=99_000)
        big_and_small = dataclasses.replace(
            base, tables=type(base.tables)([big, base.tables[1]])
        )
        process = UpdateProcess(arrivals=5_000, rows_per_update=2)
        events = list(
            itertools.islice(process.events(big_and_small, seed=4), 300)
        )
        tables = Counter(event.table_index for event in events)
        assert tables[0] > 250  # 99% of the row mass

    def test_rows_stay_in_range(self):
        process = UpdateProcess(arrivals=5_000, rows_per_update=32)
        for event in take(process, 100, seed=5, default_trace=ZipfianTrace(alpha=1.2)):
            assert (event.rows >= 0).all()
            assert (event.rows < MODEL.tables[event.table_index].num_rows).all()


class TestValidationAndLabels:
    def test_bare_rate_coerces_to_poisson(self):
        process = UpdateProcess(arrivals=2_500.0)
        assert isinstance(process.arrivals, PoissonArrivals)
        assert process.mean_push_rate == 2_500.0

    def test_mean_row_rate_scales_with_rows_per_update(self):
        process = UpdateProcess(arrivals=1_000, rows_per_update=32)
        assert process.mean_row_rate == 32_000.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            UpdateProcess(arrivals=1_000, mode="drop")

    def test_bad_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            UpdateProcess(arrivals=1_000, rows_per_update=0)

    def test_label_defaults_to_mode_rate_rows(self):
        process = UpdateProcess(arrivals=4_000, rows_per_update=32, mode="invalidate")
        assert process.label() == "invalidate:4000x32"

    def test_explicit_name_wins(self):
        process = UpdateProcess(arrivals=4_000, name="storm")
        assert process.label() == "storm"


class TestSpecParsing:
    def test_full_spec(self):
        process = parse_update_spec("write-through:rate=2000,rows=16")
        assert process.mode == "write-through"
        assert process.mean_push_rate == 2_000.0
        assert process.rows_per_update == 16

    def test_mode_aliases(self):
        assert parse_update_spec("writethrough:100").mode == "write-through"
        assert parse_update_spec("write_through:100").mode == "write-through"

    def test_bare_number_body_is_the_rate(self):
        process = parse_update_spec("invalidate:4000")
        assert process.mean_push_rate == 4_000.0
        assert process.rows_per_update == 1

    def test_whole_valued_rows_are_accepted(self):
        assert parse_update_spec("invalidate:rate=10,rows=1e2").rows_per_update == 100
        assert parse_update_spec("invalidate:rate=10,rows=32.0").rows_per_update == 32

    def test_trace_parameter(self):
        process = parse_update_spec("ignore:rate=500,rows=4,trace=zipf:1.2")
        assert isinstance(process.trace, ZipfianTrace)
        assert process.mode == "ignore"

    @pytest.mark.parametrize("spec", [None, "", "off", "none", "invalidate:rate=0"])
    def test_disabled_specs(self, spec):
        assert parse_update_spec(spec) is None

    @pytest.mark.parametrize(
        "spec",
        [
            "drop:rate=100",
            "invalidate:rate=-5",
            "invalidate:pages=4",
            "invalidate:rate=x",
            "invalidate:rate=10,rows=2.9",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_update_spec(spec)


class TestScenarioCatalog:
    def test_model_push_storm_resolves(self):
        process = resolve_update_spec("model-push-storm")
        assert process is not None
        assert process.mode == "invalidate"
        assert process.mean_push_rate == 4_000.0
        assert process.rows_per_update == 32

    def test_raw_spec_falls_through(self):
        process = resolve_update_spec("ignore:rate=10")
        assert process.mode == "ignore"

    def test_scenarios_carry_runnable_traffic(self):
        for scenario in UPDATE_SCENARIO_CATALOG.values():
            workload = scenario.workload()
            assert workload.arrivals.mean_rate_qps > 0
            assert resolve_update_spec(scenario.name) is not None
