"""Tests for the hardware configuration dataclasses."""

import pytest

from repro.config.system import (
    CPUConfig,
    FPGAConfig,
    FPGAFabricConfig,
    GPUConfig,
    LinkConfig,
    MemoryConfig,
    PowerConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestCPUConfig:
    def test_defaults_match_broadwell_xeon(self):
        cpu = CPUConfig()
        assert cpu.num_cores == 14
        assert cpu.llc_bytes == 35 * 1024 * 1024
        assert cpu.cache_line_bytes == 64

    def test_peak_flops(self):
        cpu = CPUConfig(num_cores=2, frequency_hz=1e9, simd_flops_per_cycle=4)
        assert cpu.peak_flops == pytest.approx(8e9)

    def test_total_mshrs(self):
        cpu = CPUConfig(num_cores=4, mshrs_per_core=10)
        assert cpu.total_mshrs == 40

    def test_rejects_non_positive_cores(self):
        with pytest.raises(ConfigurationError):
            CPUConfig(num_cores=0)

    def test_rejects_inverted_cache_hierarchy(self):
        with pytest.raises(ConfigurationError):
            CPUConfig(l1_bytes=1024 * 1024, l2_bytes=64 * 1024)


class TestMemoryConfig:
    def test_default_bandwidth_is_77_gbps(self):
        assert MemoryConfig().peak_bandwidth == pytest.approx(77e9)

    def test_per_channel_bandwidth(self):
        memory = MemoryConfig(num_channels=4)
        assert memory.per_channel_bandwidth == pytest.approx(memory.peak_bandwidth / 4)

    def test_loaded_latency_must_exceed_idle(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(idle_latency_s=100e-9, loaded_latency_s=50e-9)


class TestLinkConfig:
    def test_defaults_match_harpv2(self):
        link = LinkConfig()
        assert link.theoretical_bandwidth == pytest.approx(28.8e9)
        assert 17e9 <= link.effective_bandwidth <= 18e9
        assert not link.cache_bypass_available

    def test_effective_cannot_exceed_theoretical(self):
        with pytest.raises(ConfigurationError):
            LinkConfig(theoretical_bandwidth=10e9, effective_bandwidth=20e9)

    def test_bypass_requires_bandwidth(self):
        with pytest.raises(ConfigurationError):
            LinkConfig(cache_bypass_available=True, bypass_bandwidth=None)

    def test_with_bypass_helper(self):
        link = LinkConfig().with_bypass(77e9)
        assert link.cache_bypass_available
        assert link.bypass_bandwidth == pytest.approx(77e9)
        # The original is unchanged (frozen dataclass semantics).
        assert not LinkConfig().cache_bypass_available


class TestFPGAConfig:
    def test_total_pes(self):
        fpga = FPGAConfig()
        assert fpga.total_pes == 4 * 4 + 4

    def test_fabric_defaults_match_gx1150(self):
        fabric = FPGAFabricConfig()
        assert fabric.alms == 427_200
        assert fabric.dsps == 1_518
        assert fabric.ram_blocks == 2_713

    def test_rejects_bad_gemm_efficiency(self):
        with pytest.raises(ConfigurationError):
            FPGAConfig(gemm_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            FPGAConfig(gemm_efficiency=1.5)


class TestGPUConfig:
    def test_small_efficiency_below_large(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(gemm_efficiency_small=0.5, gemm_efficiency_large=0.1)

    def test_defaults_are_v100_class(self):
        gpu = GPUConfig()
        assert gpu.peak_flops == pytest.approx(15.7e12)
        assert gpu.memory_capacity_bytes == 32 * 1024 ** 3


class TestPowerConfig:
    def test_defaults_match_table4(self):
        power = PowerConfig()
        assert power.cpu_only_watts == 80.0
        assert power.cpu_gpu_total_watts == 91.0 + 56.0
        assert power.centaur_watts == 74.0

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            PowerConfig(centaur_watts=0.0)


class TestSystemConfig:
    def test_with_link_replaces_only_link(self):
        system = SystemConfig()
        new_link = LinkConfig(effective_bandwidth=10e9)
        updated = system.with_link(new_link)
        assert updated.link.effective_bandwidth == pytest.approx(10e9)
        assert updated.cpu is system.cpu
        assert system.link.effective_bandwidth != pytest.approx(10e9)

    def test_with_fpga_replaces_only_fpga(self):
        system = SystemConfig()
        updated = system.with_fpga(FPGAConfig(mlp_pe_rows=8))
        assert updated.fpga.mlp_pe_rows == 8
        assert updated.memory is system.memory
