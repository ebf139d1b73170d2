"""Tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.stats_utils import (
    geometric_mean,
    harmonic_mean,
    safe_divide,
)


class TestSafeDivide:
    def test_normal_division(self):
        assert safe_divide(6, 3) == 2

    def test_zero_denominator_returns_default(self):
        assert safe_divide(6, 0) == 0.0
        assert safe_divide(6, 0, default=-1.0) == -1.0


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=10),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_scale_invariance(self, values, scale):
        scaled = [value * scale for value in values]
        assert geometric_mean(scaled) == pytest.approx(geometric_mean(values) * scale, rel=1e-9)


class TestHarmonicMean:
    def test_matches_closed_form(self):
        assert harmonic_mean([1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 6]) == pytest.approx(3.0)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([-1.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=20))
    def test_harmonic_below_geometric(self, values):
        assert harmonic_mean(values) <= geometric_mean(values) + 1e-9
