"""Tests for the dense accelerator complex."""

import numpy as np
import pytest

from repro.config import DLRM1, DLRM6
from repro.config.system import FPGAConfig
from repro.core.dense_complex import DenseAcceleratorComplex
from repro.dlrm import DLRM
from repro.errors import CapacityError, SimulationError
from repro.workloads import UniformTrace, model_batch


@pytest.fixture()
def complex_(tiny_config):
    dense = DenseAcceleratorComplex(FPGAConfig())
    model = DLRM.from_config(tiny_config, seed=3)
    dense.load_weights(model.bottom_mlp, model.top_mlp)
    return dense, model


class TestWeightManagement:
    def test_weights_persist_in_sram(self, complex_):
        dense, model = complex_
        assert dense.weights_loaded
        assert dense.weight_sram.used_bytes == pytest.approx(
            model.config.mlp_parameter_bytes, rel=0.01
        )

    def test_forward_requires_weights(self, tiny_config):
        dense = DenseAcceleratorComplex(FPGAConfig())
        with pytest.raises(SimulationError):
            dense.forward(np.zeros((1, 13), dtype=np.float32), np.zeros((1, 4, 32), dtype=np.float32))

    def test_all_paper_models_fit_in_weight_sram(self):
        """Every Table I MLP fits in the 640 KiB persistent weight SRAM."""
        for config in (DLRM1, DLRM6):
            dense = DenseAcceleratorComplex(FPGAConfig())
            model = DLRM.from_config(config, seed=0)
            dense.load_weights(model.bottom_mlp, model.top_mlp)  # must not raise

    def test_oversized_weights_rejected(self, tiny_config):
        tiny_sram = FPGAConfig(mlp_weight_sram_bytes=1024)
        dense = DenseAcceleratorComplex(tiny_sram)
        model = DLRM.from_config(tiny_config, seed=0)
        with pytest.raises(CapacityError):
            dense.load_weights(model.bottom_mlp, model.top_mlp)


class TestFunctionalForward:
    def test_matches_software_dense_path(self, complex_, trace_rng, tiny_config):
        dense, model = complex_
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 5)
        software = model.forward(batch)
        hardware = dense.forward(batch.dense_features, software.reduced_embeddings)
        np.testing.assert_allclose(hardware.logits, software.logits, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(
            hardware.probabilities, software.probabilities, rtol=1e-4, atol=1e-4
        )

    def test_bottom_output_matches_software_mlp(self, complex_, trace_rng, tiny_config):
        """The PE-array bottom MLP (tiled GEMMs on SRAM weights) matches the software MLP."""
        dense, model = complex_
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 9)
        software = model.forward(batch)
        hardware = dense.forward(batch.dense_features, software.reduced_embeddings)
        np.testing.assert_allclose(
            hardware.bottom_mlp_output,
            model.bottom_mlp.forward(batch.dense_features),
            rtol=1e-4,
            atol=1e-4,
        )
        np.testing.assert_allclose(
            hardware.interaction_output, software.interaction_output, rtol=1e-4, atol=1e-4
        )

    def test_tiled_batch_matches_one_tile(self, complex_, trace_rng, tiny_config):
        """A batch streamed through the input SRAMs in tiles returns every output whole."""
        dense, model = complex_
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 7)
        reduced = model.embeddings.forward(batch.sparse_traces)
        whole = dense.forward(batch.dense_features, reduced)
        dense._max_tile_batch = lambda features, embeddings: 3
        tiled = dense.forward(batch.dense_features, reduced)
        for name in ("probabilities", "logits", "reduced_embeddings",
                     "bottom_mlp_output", "interaction_output"):
            np.testing.assert_allclose(getattr(tiled, name), getattr(whole, name), rtol=1e-5)

    def test_transient_inputs_are_discarded(self, complex_, trace_rng, tiny_config):
        dense, model = complex_
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 3)
        reduced = model.embeddings.forward(batch.sparse_traces)
        dense.forward(batch.dense_features, reduced)
        assert "dense_features" not in dense.dense_feature_sram
        assert "interaction" not in dense.mlp_input_sram
        # Weights stay resident for the next inference.
        assert dense.weights_loaded


class TestTimingEstimate:
    def test_components_sum(self, complex_):
        dense, _ = complex_
        estimate = dense.estimate(DLRM1, 16)
        assert estimate.total_s == pytest.approx(
            estimate.bottom_mlp_s
            + estimate.interaction_s
            + estimate.top_mlp_s
            + estimate.sigmoid_s
            + estimate.control_s
        )

    def test_latency_grows_with_batch(self, complex_):
        dense, _ = complex_
        assert dense.estimate(DLRM1, 128).total_s > dense.estimate(DLRM1, 1).total_s

    def test_dlrm6_heavier_than_dlrm1(self, complex_):
        dense, _ = complex_
        assert dense.estimate(DLRM6, 64).total_s > dense.estimate(DLRM1, 64).total_s

    def test_per_sample_cost_amortizes(self, complex_):
        dense, _ = complex_
        single = dense.estimate(DLRM6, 1).total_s
        batched = dense.estimate(DLRM6, 128).total_s / 128
        assert batched < single

    def test_rejects_bad_batch(self, complex_):
        dense, _ = complex_
        with pytest.raises(SimulationError):
            dense.estimate(DLRM1, 0)

    def test_negative_control_overhead_rejected(self):
        with pytest.raises(SimulationError):
            DenseAcceleratorComplex(FPGAConfig(), per_layer_control_s=-1.0)
