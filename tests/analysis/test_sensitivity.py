"""Tests for the sensitivity sweeps (footnote 2 and the TensorDIMM contrast)."""

import pytest

from repro.analysis.sensitivity import (
    batch_size_sweep,
    embedding_dim_sweep,
    render_sensitivity,
)
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.errors import SimulationError


class TestEmbeddingDimSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return embedding_dim_sweep(HARPV2_SYSTEM, dims=(32, 128, 512, 1024), batch_size=32)

    def test_cpu_throughput_grows_with_vector_width(self, points):
        values = [point.cpu_throughput for point in points]
        assert values == sorted(values)

    def test_wide_vectors_approach_dram_bandwidth(self, points):
        """Footnote 2: >= 1024-wide vectors push the CPU above 50 GB/s."""
        widest = points[-1]
        assert widest.embedding_dim == 1024
        assert widest.cpu_throughput > 50e9
        assert widest.cpu_fraction_of_peak > 0.65

    def test_narrow_vectors_stay_far_from_peak(self, points):
        assert points[0].embedding_dim == 32
        assert points[0].cpu_fraction_of_peak < 0.25

    def test_centaur_benefit_not_tied_to_vector_width(self, points):
        """Unlike TensorDIMM, Centaur's gather path is width-agnostic: it
        holds the same share of the link bandwidth across the entire sweep
        (the ~68% level is the ledger claim sec6.centaur_link_fraction_min)."""
        fractions = [point.centaur_fraction_of_link for point in points]
        assert max(fractions) - min(fractions) < 0.05

    def test_improvement_largest_for_production_widths(self, points):
        assert points[0].centaur_improvement > points[-1].centaur_improvement

    def test_validation(self):
        with pytest.raises(SimulationError):
            embedding_dim_sweep(HARPV2_SYSTEM, dims=(0,))
        with pytest.raises(SimulationError):
            embedding_dim_sweep(HARPV2_SYSTEM, batch_size=0)


class TestBatchSizeSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return batch_size_sweep(HARPV2_SYSTEM, batch_sizes=(128, 1024, 4096))

    def test_cpu_throughput_grows_with_batch(self, points):
        values = [point.cpu_throughput for point in points]
        assert values == sorted(values)

    def test_even_huge_batches_stay_memory_parallelism_limited(self, points):
        """Realistic DLRM gathers never get close to the DRAM peak on the
        CPU, even at batch sizes far beyond inference practice."""
        assert all(point.cpu_fraction_of_peak < 0.5 for point in points)

    def test_reference_model_default_is_dlrm4(self, points):
        assert all(point.embedding_dim == 32 for point in points)

    def test_custom_reference(self):
        points = batch_size_sweep(HARPV2_SYSTEM, reference=DLRM1, batch_sizes=(64,))
        assert len(points) == 1

    def test_validation(self):
        with pytest.raises(SimulationError):
            batch_size_sweep(HARPV2_SYSTEM, batch_sizes=(0,))


class TestRendering:
    def test_render_contains_both_designs(self):
        points = embedding_dim_sweep(HARPV2_SYSTEM, dims=(32, 64), batch_size=8)
        text = render_sensitivity(points, "Embedding width sensitivity")
        assert "Embedding width sensitivity" in text
        assert "CPU GB/s" in text and "Centaur GB/s" in text
