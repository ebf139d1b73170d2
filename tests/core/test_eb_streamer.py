"""Tests for the EB-Streamer (sparse accelerator complex)."""

import numpy as np
import pytest

from repro.analysis.paper import CLAIMS_BY_KEY
from repro.config import DLRM1, DLRM4, DLRM5, DLRM6
from repro.config.models import homogeneous_dlrm
from repro.config.system import FPGAConfig, LinkConfig
from repro.core.eb_streamer import EBStreamer
from repro.core.mmio import HostMemory
from repro.core.registers import BasePointerRegisters
from repro.dlrm import DLRM
from repro.errors import CapacityError, SimulationError
from repro.workloads import UniformTrace, model_batch


def build_functional_streamer(config, seed=0):
    """Wire an EB-Streamer to host memory holding a real model's tables."""
    model = DLRM.from_config(config, seed=seed)
    host_memory = HostMemory()
    registers = BasePointerRegisters()
    names = []
    for index, table in enumerate(model.embeddings.tables):
        name = f"t{index}"
        region = host_memory.register(name, table)
        registers.write(f"table/{name}", region.base_address)
        names.append(name)
    streamer = EBStreamer(
        fpga=FPGAConfig(),
        link_config=LinkConfig(),
        embedding_dim=config.embedding_dim,
        registers=registers,
        host_memory=host_memory,
    )
    return streamer, model, names


class TestFunctionalGatherReduce:
    def test_matches_sparse_lengths_sum(self, tiny_config, trace_rng):
        streamer, model, names = build_functional_streamer(tiny_config)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 6)
        hardware = streamer.gather_and_reduce(names, batch.sparse_traces)
        software = model.embeddings.forward(batch.sparse_traces)
        np.testing.assert_allclose(hardware, software, rtol=1e-5, atol=1e-5)

    def test_translation_goes_through_iommu(self, tiny_config, trace_rng):
        streamer, _, names = build_functional_streamer(tiny_config)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 2)
        streamer.gather_and_reduce(names, batch.sparse_traces)
        assert streamer.iommu.hits + streamer.iommu.misses == batch.total_lookups

    def test_requires_host_memory(self, tiny_config, trace_rng):
        streamer = EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 2)
        with pytest.raises(SimulationError):
            streamer.gather_and_reduce(["t0"] * tiny_config.num_tables, batch.sparse_traces)

    def test_mismatched_names_and_traces(self, tiny_config, trace_rng):
        streamer, _, names = build_functional_streamer(tiny_config)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 2)
        with pytest.raises(SimulationError):
            streamer.gather_and_reduce(names[:-1], batch.sparse_traces)

    def test_index_sram_capacity_enforced(self, trace_rng):
        config = homogeneous_dlrm("big-batch", num_tables=1, rows_per_table=100, gathers_per_table=10)
        streamer, _, names = build_functional_streamer(config)
        # Shrink the index SRAM to force a capacity error.
        streamer.index_sram.capacity_bytes = 16
        batch = model_batch(UniformTrace(), trace_rng, config, 2)
        with pytest.raises(CapacityError):
            streamer.gather_and_reduce(names, batch.sparse_traces)

    def test_index_sram_is_transient(self, tiny_config, trace_rng):
        streamer, _, names = build_functional_streamer(tiny_config)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 2)
        streamer.gather_and_reduce(names, batch.sparse_traces)
        assert streamer.index_sram.used_bytes == 0


class TestAnalyticEstimate:
    @pytest.fixture()
    def streamer(self):
        return EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())

    def test_counts_match_model(self, streamer):
        estimate = streamer.estimate(DLRM1, 16)
        assert estimate.total_lookups == DLRM1.total_gathers_per_sample * 16
        assert estimate.total_lines == estimate.total_lookups * 2
        assert estimate.useful_bytes == DLRM1.embedding_bytes_per_sample() * 16

    def test_gather_overlaps_reduction(self, streamer):
        estimate = streamer.estimate(DLRM4, 32)
        assert estimate.embedding_stage_s == pytest.approx(
            max(estimate.gather_s, estimate.reduction_s)
        )
        # On HARPv2 the link, not the reduction lanes, is the bottleneck.
        assert estimate.gather_s > estimate.reduction_s

    def test_effective_throughput_reaches_paper_peak(self, streamer):
        """Large gathers saturate at the paper's gather peak (68% of the
        effective link bandwidth)."""
        peak = CLAIMS_BY_KEY["fig13.centaur_gather_peak"]
        throughput = streamer.estimate(DLRM4, 128).effective_throughput
        assert throughput == pytest.approx(peak.published, rel=peak.tolerance)

    def test_small_batch_still_respectable(self, streamer):
        """Unlike the CPU, the EB-Streamer keeps multi-GB/s rates at batch 1."""
        assert streamer.estimate(DLRM4, 1).effective_throughput > 5e9

    def test_throughput_never_exceeds_link_effective_bandwidth(self, streamer):
        for config in (DLRM1, DLRM4, DLRM5, DLRM6):
            for batch in (1, 16, 128):
                estimate = streamer.estimate(config, batch)
                assert estimate.sustained_gather_bandwidth <= LinkConfig().effective_bandwidth

    def test_index_fetch_scales_with_lookups(self, streamer):
        small = streamer.estimate(DLRM1, 1).index_fetch_s
        large = streamer.estimate(DLRM4, 128).index_fetch_s
        assert large > small

    def test_rejects_bad_batch(self, streamer):
        with pytest.raises(SimulationError):
            streamer.estimate(DLRM1, 0)


class TestEventDrivenSimulation:
    def test_simulation_agrees_with_analytic_estimate(self):
        streamer = EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())
        config = homogeneous_dlrm(
            "sim-check", num_tables=4, rows_per_table=10_000, gathers_per_table=20
        )
        analytic = streamer.estimate(config, 16)
        simulated = streamer.simulate(config, 16)
        assert simulated["gather_s"] == pytest.approx(analytic.gather_s, rel=0.25)

    def test_simulated_bandwidth_bounded_by_gather_cap(self):
        streamer = EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())
        config = homogeneous_dlrm(
            "sim-bw", num_tables=2, rows_per_table=10_000, gathers_per_table=50
        )
        simulated = streamer.simulate(config, 8)
        assert simulated["achieved_bandwidth"] <= streamer.link.peak_gather_bandwidth * 1.01

    def test_large_streams_are_scaled_from_prefix(self):
        streamer = EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())
        simulated = streamer.simulate(DLRM1, 64, max_requests=2_000)
        assert simulated["simulated_lines"] == 2_000
        assert simulated["gather_s"] > 0

    def test_rejects_bad_batch(self):
        streamer = EBStreamer(fpga=FPGAConfig(), link_config=LinkConfig())
        with pytest.raises(SimulationError):
            streamer.simulate(DLRM1, 0)
