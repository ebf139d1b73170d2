"""Tests for TrafficMix, Workload composition and seed-splitting."""

import itertools

import numpy as np
import pytest

from repro.config import DLRM2, DLRM4
from repro.errors import SimulationError
from repro.workloads import (
    PoissonArrivals,
    TrafficMix,
    UniformTrace,
    Workload,
    ZipfianTrace,
    model_batch,
    poisson_workload,
)


class TestTrafficMix:
    def test_shares_normalized(self):
        mix = TrafficMix.of((DLRM2, 3.0), (DLRM4, 1.0))
        shares = mix.expected_shares()
        assert shares["DLRM(2)"] == pytest.approx(0.75)
        assert shares["DLRM(4)"] == pytest.approx(0.25)

    def test_name_stream_matches_weights(self):
        mix = TrafficMix.of((DLRM2, 0.7), (DLRM4, 0.3))
        names = list(itertools.islice(mix.name_stream(seed=0), 20_000))
        share = names.count("DLRM(2)") / len(names)
        assert share == pytest.approx(0.7, abs=0.02)

    def test_name_stream_deterministic(self):
        mix = TrafficMix.of((DLRM2, 0.5), (DLRM4, 0.5))
        a = list(itertools.islice(mix.name_stream(seed=9), 100))
        b = list(itertools.islice(mix.name_stream(seed=9), 100))
        assert a == b

    def test_single_and_label(self):
        assert not TrafficMix.single(DLRM2).is_multi_model
        assert TrafficMix.single(DLRM2).label == "DLRM(2)"
        assert "%" in TrafficMix.of((DLRM2, 0.7), (DLRM4, 0.3)).label

    def test_validation(self):
        with pytest.raises(SimulationError):
            TrafficMix([])
        with pytest.raises(SimulationError):
            TrafficMix.of((DLRM2, 0.0))
        with pytest.raises(SimulationError):
            TrafficMix.of((DLRM2, 0.5), (DLRM2, 0.5))
        with pytest.raises(SimulationError):
            TrafficMix.single(DLRM2).probability_of("DLRM(4)")


class TestWorkload:
    def test_name_derived_from_parts(self):
        workload = Workload(arrivals=PoissonArrivals(10_000.0), trace=ZipfianTrace())
        assert "poisson" in workload.name and "zipf" in workload.name

    def test_bare_rate_coerced_to_poisson(self):
        workload = Workload(arrivals=25_000.0)
        assert isinstance(workload.arrivals, PoissonArrivals)
        assert workload.arrivals.rate_qps == 25_000.0

    def test_requests_deterministic_across_calls(self):
        mix = TrafficMix.of((DLRM2, 0.6), (DLRM4, 0.4))
        workload = Workload(arrivals=PoissonArrivals(5_000.0), mix=mix)
        a = workload.request_list(num_requests=100, seed=4)
        b = workload.request_list(num_requests=100, seed=4)
        assert [(r.arrival_time_s, r.model_name) for r in a] == [
            (r.arrival_time_s, r.model_name) for r in b
        ]

    def test_seed_splitting_isolates_dimensions(self):
        """Adding a mix must not perturb the arrival-time stream."""
        plain = Workload(arrivals=PoissonArrivals(5_000.0))
        mixed = Workload(
            arrivals=PoissonArrivals(5_000.0), mix=TrafficMix.of((DLRM2, 1.0), (DLRM4, 1.0))
        )
        times_plain = [r.arrival_time_s for r in plain.request_list(num_requests=50, seed=8)]
        times_mixed = [r.arrival_time_s for r in mixed.request_list(num_requests=50, seed=8)]
        assert times_plain == pytest.approx(times_mixed, abs=0.0)

    def test_seed_layout_is_one_four_way_split(self):
        """Arrivals, mix, trace and updates are spawn children 0-3 of the seed.

        Every committed stdout and artifact was drawn from this layout, so
        reordering or resizing the split must fail here first.
        """
        seeds = Workload.seeds(8)
        assert seeds._fields == ("arrivals", "mix", "trace", "updates")
        for index, child in enumerate(seeds):
            expected = np.random.SeedSequence(8).spawn(index + 1)[index]
            assert child.spawn_key == (index,)
            assert np.array_equal(child.generate_state(4), expected.generate_state(4))

    def test_requests_and_batches_draw_from_their_named_children(self):
        workload = Workload(arrivals=PoissonArrivals(5_000.0))
        seeds = Workload.seeds(8)
        times = [r.arrival_time_s for r in workload.request_list(num_requests=20, seed=8)]
        direct = PoissonArrivals(5_000.0).arrivals(num_requests=20, seed=seeds.arrivals)
        assert times == list(direct)
        batch = workload.batch(DLRM2, batch_size=4, seed=8)
        rng = np.random.default_rng(seeds.trace)
        again = model_batch(workload.trace, rng, DLRM2, 4)
        assert np.array_equal(batch.sparse_traces[0].indices, again.sparse_traces[0].indices)

    def test_batch_generation_uses_trace_model(self):
        workload = Workload(arrivals=PoissonArrivals(1_000.0), trace=UniformTrace())
        batch = workload.batch(DLRM2, batch_size=4, seed=0)
        assert batch.batch_size == 4
        assert batch.num_tables == len(DLRM2.tables)
        again = workload.batch(DLRM2, batch_size=4, seed=0)
        assert np.array_equal(batch.sparse_traces[0].indices, again.sparse_traces[0].indices)

    def test_batches_are_independent_draws(self):
        workload = Workload(arrivals=PoissonArrivals(1_000.0))
        first, second = list(workload.batches(DLRM2, batch_size=4, count=2, seed=0))
        assert not np.array_equal(
            first.sparse_traces[0].indices, second.sparse_traces[0].indices
        )

    def test_validation(self):
        with pytest.raises(SimulationError):
            Workload(arrivals=PoissonArrivals(1.0), trace="nope")
        with pytest.raises(SimulationError):
            Workload(arrivals=PoissonArrivals(1.0), mix="nope")

    def test_poisson_workload_shorthand(self):
        workload = poisson_workload(1_000.0, name="shorthand")
        assert workload.name == "shorthand"
        assert workload.arrivals.mean_rate_qps == 1_000.0
