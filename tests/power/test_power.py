"""Tests for the power model and the energy it yields (Table IV / Figure 15b)."""

import pytest

from repro.config import DLRM1, HARPV2_SYSTEM
from repro.config.system import PowerConfig
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.gpu import CPUGPURunner
from repro.errors import ConfigurationError
from repro.power import PowerModel


@pytest.fixture(scope="module")
def power_model():
    return PowerModel(PowerConfig())


class TestPowerModel:
    def test_centaur_draws_least_power(self, power_model):
        values = power_model.table4()
        assert values["Centaur"] < values["CPU-only"] < values["CPU-GPU"]

    def test_unknown_design_point_rejected(self, power_model):
        with pytest.raises(ConfigurationError):
            power_model.power_watts("TPU")

    def test_cpu_gpu_total_is_socket_plus_device(self, power_model):
        config = power_model.config
        assert config.cpu_gpu_gpu_watts == 56.0
        assert power_model.power_watts("CPU-GPU") == config.cpu_gpu_cpu_watts + 56.0


class TestEnergyAccounting:
    def test_energy_is_power_times_latency(self):
        result = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        assert result.energy_joules == pytest.approx(80.0 * result.latency_seconds)
        assert result.energy_per_sample_joules == pytest.approx(result.energy_joules / 16)
        assert result.design_point == "CPU-only"

    @pytest.mark.parametrize("runner_cls", [CPUOnlyRunner, CPUGPURunner, CentaurRunner])
    def test_each_design_point_is_priced_at_its_table4_power(self, power_model, runner_cls):
        result = runner_cls(HARPV2_SYSTEM).run(DLRM1, 16)
        assert result.power_watts == power_model.power_watts(result.design_point)
        assert result.energy_joules == pytest.approx(
            result.power_watts * result.latency_seconds
        )

    def test_efficiency_is_the_baseline_over_the_candidate_energy(self):
        cpu = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        centaur = CentaurRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        assert centaur.energy_efficiency_over(cpu) == pytest.approx(
            cpu.energy_joules / centaur.energy_joules
        )

    def test_efficiency_combines_speedup_and_power_ratio(self):
        cpu = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        centaur = CentaurRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        expected = centaur.speedup_over(cpu) * (80.0 / 74.0)
        assert centaur.energy_efficiency_over(cpu) == pytest.approx(expected)
