"""Tests for the functional Centaur device (end-to-end hardware datapath)."""

import numpy as np
import pytest

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurDevice
from repro.dlrm import DLRM
from repro.errors import SimulationError
from repro.workloads import UniformTrace, model_batch


@pytest.fixture(scope="module")
def device_and_model():
    config = homogeneous_dlrm(
        name="device-test",
        num_tables=4,
        rows_per_table=2_000,
        gathers_per_table=6,
        bottom_hidden=(32, 16),
        top_hidden=(24,),
    )
    model = DLRM.from_config(config, seed=13)
    device = CentaurDevice(model, HARPV2_SYSTEM)
    return device, model, config


class TestDeviceSetup:
    def test_tables_registered_in_host_memory(self, device_and_model):
        device, model, config = device_and_model
        assert len(device.table_names) == config.num_tables
        for name in device.table_names:
            assert device.registers.read(f"table/{name}") > 0

    def test_weights_uploaded_to_fpga_sram(self, device_and_model):
        device, model, config = device_and_model
        assert device.dense_complex.weights_loaded
        assert device.dense_complex.weight_sram.used_bytes > 0

    def test_setup_latency_accumulates_mmio_writes(self, device_and_model):
        device, _, config = device_and_model
        expected_writes = config.num_tables + 1  # one per table + output pointer
        assert device.setup_latency_s == pytest.approx(
            expected_writes * HARPV2_SYSTEM.link.mmio_write_latency_s
        )


class TestFunctionalEquivalence:
    def test_probabilities_match_software_model(self, device_and_model, trace_rng):
        device, model, config = device_and_model
        batch = model_batch(UniformTrace(), trace_rng, config, 8)
        hardware = device.infer(batch)
        software = model.forward(batch)
        np.testing.assert_allclose(
            hardware.probabilities, software.probabilities, rtol=1e-4, atol=1e-5
        )
        np.testing.assert_allclose(hardware.logits, software.logits, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(
            hardware.reduced_embeddings, software.reduced_embeddings, rtol=1e-4, atol=1e-5
        )

    def test_infer_runs_each_mlp_layer_once(self, device_and_model, trace_rng, monkeypatch):
        """The dense datapath runs once: one GEMM per bottom and top layer."""
        device, model, config = device_and_model
        batch = model_batch(UniformTrace(), trace_rng, config, 8)
        unit = device.dense_complex.mlp_unit
        calls = []
        gemm = unit.gemm
        monkeypatch.setattr(unit, "gemm", lambda *args: calls.append(1) or gemm(*args))
        output = device.infer(batch)
        assert len(calls) == len(model.bottom_mlp.layers) + len(model.top_mlp.layers)
        np.testing.assert_allclose(
            output.bottom_mlp_output,
            model.bottom_mlp.forward(batch.dense_features),
            rtol=1e-4,
            atol=1e-5,
        )

    def test_predict_writes_result_back_to_host_memory(self, device_and_model, trace_rng):
        device, _, config = device_and_model
        batch = model_batch(UniformTrace(), trace_rng, config, 4)
        probabilities = device.predict(batch)
        output_region = device.host_memory.region("output")
        np.testing.assert_allclose(
            output_region.backing[: batch.batch_size], probabilities, rtol=1e-6
        )

    def test_repeated_inference_is_deterministic(self, device_and_model, trace_rng):
        device, _, config = device_and_model
        batch = model_batch(UniformTrace(), trace_rng, config, 4)
        first = device.predict(batch)
        second = device.predict(batch)
        np.testing.assert_array_equal(first, second)

    def test_piecewise_sigmoid_mode_is_close(self, trace_rng):
        config = homogeneous_dlrm(
            name="pwl", num_tables=2, rows_per_table=500, gathers_per_table=3,
            bottom_hidden=(16,), top_hidden=(16,),
        )
        model = DLRM.from_config(config, seed=5)
        device = CentaurDevice(model, HARPV2_SYSTEM, sigmoid_mode="piecewise")
        batch = model_batch(UniformTrace(), trace_rng, config, 6)
        hardware = device.predict(batch)
        software = model.predict(batch)
        assert np.max(np.abs(hardware - software)) < 0.02


class TestInputValidation:
    def test_wrong_table_count_rejected(self, device_and_model, trace_rng):
        device, _, config = device_and_model
        other = homogeneous_dlrm(
            name="other", num_tables=2, rows_per_table=2_000, gathers_per_table=6
        )
        batch = model_batch(UniformTrace(), trace_rng, other, 2)
        with pytest.raises(SimulationError):
            device.infer(batch)

    def test_oversized_batch_grows_the_output_buffer(self):
        """A batch beyond the registered region re-registers it, not fails."""
        config = homogeneous_dlrm(
            name="grow-test",
            num_tables=2,
            rows_per_table=500,
            gathers_per_table=2,
            embedding_dim=16,
            bottom_hidden=(8,),
            top_hidden=(8,),
        )
        model = DLRM.from_config(config, seed=3)
        device = CentaurDevice(model, HARPV2_SYSTEM)
        setup_before = device.setup_latency_s
        batch = model_batch(UniformTrace(), np.random.default_rng(0), config, 8192)

        output = device.infer(batch)

        assert output.probabilities.shape == (8192,)
        assert device.output_capacity >= 8192
        assert device.output_regrows == 1
        # The resize charged the MMIO base-pointer rewrite.
        assert device.setup_latency_s > setup_before
        # The grown region really holds the batch's results.
        written = device.host_memory.read(device.registers.read("output"), 8192 * 4)
        np.testing.assert_allclose(written, output.probabilities, rtol=1e-6)

    def test_output_buffer_growth_is_idempotent_once_grown(self):
        config = homogeneous_dlrm(
            name="grow-twice",
            num_tables=2,
            rows_per_table=500,
            gathers_per_table=2,
            embedding_dim=16,
            bottom_hidden=(8,),
            top_hidden=(8,),
        )
        device = CentaurDevice(DLRM.from_config(config, seed=3), HARPV2_SYSTEM)
        rng = np.random.default_rng(1)
        device.infer(model_batch(UniformTrace(), rng, config, 5000))
        capacity = device.output_capacity
        device.infer(model_batch(UniformTrace(), rng, config, 5000))
        assert device.output_capacity == capacity
        assert device.output_regrows == 1
