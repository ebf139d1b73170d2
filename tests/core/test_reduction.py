"""Tests for the embedding reduction unit."""

import numpy as np
import pytest

from repro.analysis.paper import CLAIMS_BY_KEY
from repro.core.reduction import EmbeddingReductionUnit
from repro.errors import ConfigurationError, SimulationError


class TestFunctionalReduction:
    def test_accumulates_per_sample(self):
        unit = EmbeddingReductionUnit(embedding_dim=4)
        unit.begin(batch_size=2)
        unit.accumulate(0, np.array([1.0, 1.0, 1.0, 1.0]))
        unit.accumulate(0, np.array([2.0, 0.0, 0.0, 0.0]))
        unit.accumulate(1, np.array([0.0, 5.0, 0.0, 0.0]))
        result = unit.result()
        np.testing.assert_array_equal(result[0], [3.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(result[1], [0.0, 5.0, 0.0, 0.0])

    def test_begin_resets_state(self):
        unit = EmbeddingReductionUnit(embedding_dim=4)
        unit.begin(1)
        unit.accumulate(0, np.ones(4))
        unit.begin(1)
        np.testing.assert_array_equal(unit.result(), np.zeros((1, 4)))

    def test_result_is_a_copy(self):
        unit = EmbeddingReductionUnit(embedding_dim=2)
        unit.begin(1)
        result = unit.result()
        result[0, 0] = 99.0
        np.testing.assert_array_equal(unit.result(), np.zeros((1, 2)))

    def test_usage_errors(self):
        unit = EmbeddingReductionUnit(embedding_dim=4)
        with pytest.raises(SimulationError):
            unit.accumulate(0, np.ones(4))
        with pytest.raises(SimulationError):
            unit.result()
        unit.begin(2)
        with pytest.raises(SimulationError):
            unit.accumulate(5, np.ones(4))
        with pytest.raises(SimulationError):
            unit.accumulate(0, np.ones(3))
        with pytest.raises(SimulationError):
            unit.begin(0)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            EmbeddingReductionUnit(embedding_dim=0)
        with pytest.raises(ConfigurationError):
            EmbeddingReductionUnit(embedding_dim=8, num_lanes=0)
        with pytest.raises(ConfigurationError):
            EmbeddingReductionUnit(embedding_dim=8, frequency_hz=0)


class TestTiming:
    def test_cycles_per_vector(self):
        assert EmbeddingReductionUnit(32, num_lanes=32).cycles_per_vector == 1
        assert EmbeddingReductionUnit(64, num_lanes=32).cycles_per_vector == 2
        assert EmbeddingReductionUnit(33, num_lanes=32).cycles_per_vector == 2

    def test_cycle_counter_advances(self):
        unit = EmbeddingReductionUnit(embedding_dim=64, num_lanes=32)
        unit.begin(1)
        unit.accumulate(0, np.ones(64))
        unit.accumulate(0, np.ones(64))
        assert unit.cycles == 4
        assert unit.vectors_reduced == 2

    def test_reduction_throughput_exceeds_link_gather_bandwidth(self):
        """32 lanes at 200 MHz absorb 25.6 GB/s, above the paper's gather
        peak, so reductions never throttle the EB-Streamer on HARPv2."""
        unit = EmbeddingReductionUnit(embedding_dim=32, num_lanes=32, frequency_hz=200e6)
        assert unit.throughput_bytes_per_s == pytest.approx(25.6e9)
        assert unit.throughput_bytes_per_s > CLAIMS_BY_KEY["fig13.centaur_gather_peak"].published

    def test_reduction_time_linear_in_vectors(self):
        unit = EmbeddingReductionUnit(embedding_dim=32, num_lanes=32, frequency_hz=200e6)
        assert unit.reduction_time_s(200) == pytest.approx(2 * unit.reduction_time_s(100))
        assert unit.reduction_time_s(0) == 0.0
        with pytest.raises(SimulationError):
            unit.reduction_time_s(-1)
