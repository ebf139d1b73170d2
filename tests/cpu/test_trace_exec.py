"""Tests for the trace-driven validation of the embedding cache model."""

import pytest

from repro.config.models import homogeneous_dlrm
from repro.config.system import CPUConfig
from repro.cpu.trace_exec import TraceDrivenEmbeddingSimulator
from repro.errors import SimulationError
from repro.memsys.stats import CacheStats
from repro.workloads import ZipfianTrace


def scaled_model(rows_per_table, num_tables=4, gathers=16, name=None):
    return homogeneous_dlrm(
        name=name or f"scaled-{num_tables}x{rows_per_table}",
        num_tables=num_tables,
        rows_per_table=rows_per_table,
        gathers_per_table=gathers,
    )


class TestTraceDrivenProfile:
    def test_small_tables_mostly_hit(self):
        # Aggregate footprint 4 x 2k x 128 B = 1 MB << the 2.5 MB LLC slice.
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        profile = simulator.profile(scaled_model(2_000), batch_size=16, warmup_batches=2)
        assert profile.measured_miss_rate < 0.15
        assert profile.predicted_miss_probability < 0.15

    def test_large_tables_mostly_miss(self):
        # Aggregate footprint 4 x 100k x 128 B = 51 MB >> the LLC slice.
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        profile = simulator.profile(scaled_model(100_000), batch_size=16)
        assert profile.measured_miss_rate > 0.8
        assert profile.predicted_miss_probability > 0.8

    def test_miss_rate_grows_with_footprint(self):
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        small = simulator.profile(scaled_model(2_000), batch_size=8, warmup_batches=2)
        medium = simulator.profile(scaled_model(20_000), batch_size=8, warmup_batches=2)
        large = simulator.profile(scaled_model(80_000), batch_size=8)
        assert (
            small.measured_miss_rate
            < medium.measured_miss_rate
            < large.measured_miss_rate
        )

    def test_analytic_model_tracks_measurement(self):
        """The closed-form model stays within ~15 percentage points of the
        trace-driven measurement across footprints spanning the LLC size."""
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        for rows in (4_000, 40_000, 120_000):
            profile = simulator.profile(
                scaled_model(rows), batch_size=8, warmup_batches=1
            )
            assert profile.absolute_error < 0.15, (
                rows,
                profile.measured_miss_rate,
                profile.predicted_miss_probability,
            )

    def test_counts_and_metadata(self):
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        model = scaled_model(2_000, num_tables=2, gathers=4)
        profile = simulator.profile(model, batch_size=4, warmup_batches=0)
        assert profile.lookups == 2 * 4 * 4
        # Each 128-byte vector spans two cache lines.
        assert profile.measured_llc.accesses == profile.lookups * 2
        assert profile.llc_slice_bytes == CPUConfig().llc_bytes // CPUConfig().num_cores

    def test_full_llc_share_hits_more(self):
        whole_llc = TraceDrivenEmbeddingSimulator(CPUConfig(), llc_share=1.0)
        one_core = TraceDrivenEmbeddingSimulator(CPUConfig())
        model = scaled_model(40_000)
        generous = whole_llc.profile(model, batch_size=8, warmup_batches=2)
        tight = one_core.profile(model, batch_size=8, warmup_batches=2)
        assert generous.measured_miss_rate < tight.measured_miss_rate

    def test_profile_is_pinned(self):
        """The default uniform replay draws one ``default_rng(0)`` stream."""
        model = homogeneous_dlrm(
            name="pin", num_tables=4, rows_per_table=20_000, gathers_per_table=16
        )
        profile = TraceDrivenEmbeddingSimulator(CPUConfig()).profile(
            model, batch_size=8, warmup_batches=1
        )
        assert profile.measured_llc == CacheStats(accesses=1008, hits=252, misses=756)
        assert profile.predicted_miss_probability == 0.7926805337218998

    def test_skewed_trace_misses_less(self):
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        model = scaled_model(20_000)
        uniform = simulator.profile(model, batch_size=8, warmup_batches=1)
        skewed = simulator.profile(
            model, batch_size=8, warmup_batches=1, trace=ZipfianTrace(1.2)
        )
        assert skewed.measured_llc.misses < uniform.measured_llc.misses

    def test_validation(self):
        with pytest.raises(SimulationError):
            TraceDrivenEmbeddingSimulator(CPUConfig(), llc_share=0.0)
        simulator = TraceDrivenEmbeddingSimulator(CPUConfig())
        with pytest.raises(SimulationError):
            simulator.profile(scaled_model(1_000), batch_size=0)
        with pytest.raises(SimulationError):
            simulator.profile(scaled_model(1_000), batch_size=1, warmup_batches=-1)
