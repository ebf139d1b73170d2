"""Tests for the arrival processes: determinism, laziness, statistics."""

import itertools

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workloads import (
    ArrivalProcess,
    ConstantRateArrivals,
    DiurnalArrivals,
    InferenceRequest,
    OnOffArrivals,
    PoissonArrivals,
    ReplayArrivals,
    as_arrival_process,
)

ALL_PROCESSES = (
    PoissonArrivals(rate_qps=5_000.0),
    ConstantRateArrivals(rate_qps=5_000.0),
    OnOffArrivals(on_rate_qps=20_000.0, off_rate_qps=1_000.0, mean_on_s=0.01, mean_off_s=0.02),
    DiurnalArrivals(trough_qps=2_000.0, peak_qps=20_000.0, period_s=0.2),
    ReplayArrivals(np.linspace(0.001, 1.0, 500)),
)


class TestDeterminism:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: p.kind)
    def test_identical_seeds_identical_streams(self, process):
        first = process.generate(num_requests=200, seed=7)
        second = process.generate(num_requests=200, seed=7)
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]

    @pytest.mark.parametrize(
        "process",
        [p for p in ALL_PROCESSES if p.kind not in ("replay", "constant")],
        ids=lambda p: p.kind,
    )
    def test_different_seeds_differ(self, process):
        first = process.generate(num_requests=50, seed=1)
        second = process.generate(num_requests=50, seed=2)
        assert [r.arrival_time_s for r in first] != [r.arrival_time_s for r in second]

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: p.kind)
    def test_streams_are_sorted_with_sequential_ids(self, process):
        requests = process.generate(num_requests=300, seed=3)
        times = [r.arrival_time_s for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: p.kind)
    def test_statelessness_across_calls(self, process):
        """One instance, two calls, same seed: identical streams."""
        first = process.generate(num_requests=64, seed=11)
        second = process.generate(num_requests=64, seed=11)
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]


class TestLaziness:
    def test_arrivals_is_a_lazy_iterator(self):
        process = PoissonArrivals(rate_qps=1_000.0)
        stream = process.arrivals(num_requests=10_000_000, seed=0)
        head = list(itertools.islice(stream, 5))
        assert len(head) == 5
        assert all(isinstance(r, InferenceRequest) for r in head)

    def test_duration_mode_respects_window(self):
        requests = PoissonArrivals(2_000.0).generate(duration_s=0.05, seed=1)
        assert all(r.arrival_time_s <= 0.05 for r in requests)
        assert 40 <= len(requests) <= 180


class TestPoisson:
    def test_rate_close_to_requested(self):
        requests = PoissonArrivals(5_000.0).generate(num_requests=5_000, seed=7)
        empirical = len(requests) / requests[-1].arrival_time_s
        assert empirical == pytest.approx(5_000.0, rel=0.1)

    def test_chunked_draws_match_legacy_scalar_loop(self):
        """The vectorized stream is draw-for-draw the legacy per-request loop.

        The count deliberately spans several chunk boundaries: folding the
        running clock into the first gap before the cumsum keeps the float
        accumulation order identical to the sequential ``now += gap`` loop,
        which a start-of-chunk offset add would silently break.
        """
        rate, seed, count = 1_234.0, 42, 10_000
        rng = np.random.default_rng(seed)
        legacy = []
        now = 0.0
        for _ in range(count):
            now += float(rng.exponential(1.0 / rate))
            legacy.append(now)
        vectorized = [
            r.arrival_time_s
            for r in PoissonArrivals(rate).generate(num_requests=count, seed=seed)
        ]
        assert vectorized == pytest.approx(legacy, abs=0.0)

    def test_interarrival_times_are_exponential_like(self):
        requests = PoissonArrivals(1_000.0).generate(num_requests=4_000, seed=5)
        gaps = np.diff([0.0] + [r.arrival_time_s for r in requests])
        # Mean ~1ms and coefficient of variation ~1 for an exponential.
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.1)
        assert np.std(gaps) / np.mean(gaps) == pytest.approx(1.0, abs=0.15)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(0.0)


class TestInferenceRequest:
    def test_validation(self):
        with pytest.raises(SimulationError):
            InferenceRequest(request_id=-1, arrival_time_s=0.0)
        with pytest.raises(SimulationError):
            InferenceRequest(request_id=0, arrival_time_s=-1.0)


class TestConstantRate:
    def test_evenly_spaced(self):
        requests = ConstantRateArrivals(1_000.0).generate(num_requests=10)
        gaps = np.diff([0.0] + [r.arrival_time_s for r in requests])
        assert gaps == pytest.approx(np.full(10, 1e-3))


class TestOnOff:
    def test_mean_rate_is_sojourn_weighted(self):
        process = OnOffArrivals(
            on_rate_qps=30_000.0, off_rate_qps=0.0, mean_on_s=0.1, mean_off_s=0.3
        )
        assert process.mean_rate_qps == pytest.approx(7_500.0)

    def test_burstier_than_poisson(self):
        """Inter-arrival CoV well above 1 distinguishes MMPP from Poisson."""
        process = OnOffArrivals(
            on_rate_qps=50_000.0, off_rate_qps=500.0, mean_on_s=0.01, mean_off_s=0.05
        )
        times = [r.arrival_time_s for r in process.generate(num_requests=4_000, seed=5)]
        gaps = np.diff([0.0] + times)
        assert np.std(gaps) / np.mean(gaps) > 1.5

    def test_long_run_rate_approaches_mean(self):
        process = OnOffArrivals(
            on_rate_qps=20_000.0, off_rate_qps=2_000.0, mean_on_s=0.02, mean_off_s=0.02
        )
        requests = process.generate(duration_s=2.0, seed=9)
        empirical = len(requests) / 2.0
        assert empirical == pytest.approx(process.mean_rate_qps, rel=0.2)

    def test_validation(self):
        with pytest.raises(SimulationError):
            OnOffArrivals(on_rate_qps=0.0)
        with pytest.raises(SimulationError):
            OnOffArrivals(on_rate_qps=1.0, off_rate_qps=-1.0)
        with pytest.raises(SimulationError):
            OnOffArrivals(on_rate_qps=1.0, mean_on_s=0.0)


class TestDiurnal:
    def test_rate_curve_endpoints(self):
        process = DiurnalArrivals(trough_qps=1_000.0, peak_qps=9_000.0, period_s=1.0)
        assert process.rate_at(0.0) == pytest.approx(1_000.0)
        assert process.rate_at(0.5) == pytest.approx(9_000.0)
        assert process.mean_rate_qps == pytest.approx(5_000.0)

    def test_peak_half_busier_than_trough_half(self):
        process = DiurnalArrivals(trough_qps=2_000.0, peak_qps=30_000.0, period_s=1.0)
        requests = process.generate(duration_s=1.0, seed=3)
        times = np.array([r.arrival_time_s for r in requests])
        near_peak = np.sum((times > 0.25) & (times <= 0.75))
        off_peak = len(times) - near_peak
        assert near_peak > 2 * off_peak

    def test_validation(self):
        with pytest.raises(SimulationError):
            DiurnalArrivals(trough_qps=10.0, peak_qps=5.0)
        with pytest.raises(SimulationError):
            DiurnalArrivals(trough_qps=1.0, peak_qps=2.0, period_s=0.0)


class TestReplay:
    def test_replays_exactly(self):
        times = [0.001, 0.002, 0.0035]
        requests = ReplayArrivals(times).generate(num_requests=10)
        assert [r.arrival_time_s for r in requests] == pytest.approx(times)

    def test_rejects_unsorted_and_negative(self):
        with pytest.raises(SimulationError):
            ReplayArrivals([0.2, 0.1])
        with pytest.raises(SimulationError):
            ReplayArrivals([-0.1, 0.2])
        with pytest.raises(SimulationError):
            ReplayArrivals([])


class TestArgumentValidation:
    def test_exactly_one_bound(self):
        process = PoissonArrivals(10.0)
        with pytest.raises(SimulationError):
            list(process.arrivals())
        with pytest.raises(SimulationError):
            list(process.arrivals(duration_s=1.0, num_requests=5))
        with pytest.raises(SimulationError):
            list(process.arrivals(duration_s=-1.0))
        with pytest.raises(SimulationError):
            list(process.arrivals(num_requests=0))

    def test_as_arrival_process(self):
        assert isinstance(as_arrival_process(500.0), PoissonArrivals)
        process = ConstantRateArrivals(10.0)
        assert as_arrival_process(process) is process
        with pytest.raises(SimulationError):
            as_arrival_process("nope")


class TestAbstractBase:
    def test_base_class_raises(self):
        process = ArrivalProcess()
        with pytest.raises(NotImplementedError):
            process.mean_rate_qps
        with pytest.raises(NotImplementedError):
            next(iter(process.times()))
