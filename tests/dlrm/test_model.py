"""Tests for the end-to-end DLRM model."""

import numpy as np
import pytest

from repro.config.models import homogeneous_dlrm
from repro.dlrm import DLRM
from repro.dlrm.embedding import EmbeddingBagCollection
from repro.dlrm.interaction import dot_feature_interaction
from repro.dlrm.mlp import MLP, sigmoid
from repro.errors import ModelShapeError
from repro.workloads import UniformTrace, model_batch


class TestDLRMConstruction:
    def test_from_config_builds_consistent_model(self, tiny_config):
        model = DLRM.from_config(tiny_config, seed=0)
        assert model.embeddings.num_tables == tiny_config.num_tables
        assert model.bottom_mlp.out_dim == tiny_config.embedding_dim
        assert model.top_mlp.in_dim == tiny_config.interaction_output_dim

    def test_same_seed_same_weights(self, tiny_config):
        a = DLRM.from_config(tiny_config, seed=5)
        b = DLRM.from_config(tiny_config, seed=5)
        np.testing.assert_array_equal(a.bottom_mlp.layers[0].weight, b.bottom_mlp.layers[0].weight)

    def test_dense_storage_option(self, tiny_config):
        model = DLRM.from_config(tiny_config, seed=0, storage="dense")
        assert model.embeddings.total_bytes == tiny_config.embedding_table_bytes

    def test_mismatched_pieces_rejected(self, tiny_config):
        model = DLRM.from_config(tiny_config, seed=0)
        wrong_bottom = MLP.from_config(tiny_config.bottom_mlp.with_output_dim(16))
        with pytest.raises(ModelShapeError):
            DLRM(tiny_config, model.embeddings, wrong_bottom, model.top_mlp)

    def test_wrong_table_count_rejected(self, tiny_config):
        model = DLRM.from_config(tiny_config, seed=0)
        fewer_tables = EmbeddingBagCollection(model.embeddings.tables[:-1])
        with pytest.raises(ModelShapeError):
            DLRM(tiny_config, fewer_tables, model.bottom_mlp, model.top_mlp)


class TestDLRMForward:
    def test_output_shapes(self, tiny_model, tiny_batch, tiny_config):
        out = tiny_model.forward(tiny_batch)
        batch = tiny_batch.batch_size
        assert out.probabilities.shape == (batch,)
        assert out.logits.shape == (batch,)
        assert out.reduced_embeddings.shape == (
            batch,
            tiny_config.num_tables,
            tiny_config.embedding_dim,
        )
        assert out.interaction_output.shape == (batch, tiny_config.interaction_output_dim)
        assert out.batch_size == batch

    def test_probabilities_are_valid(self, tiny_model, tiny_batch):
        out = tiny_model.forward(tiny_batch)
        assert np.all((out.probabilities >= 0) & (out.probabilities <= 1))
        np.testing.assert_allclose(out.probabilities, sigmoid(out.logits), atol=1e-6)

    def test_forward_composes_stages(self, tiny_model, tiny_batch):
        """The end-to-end output equals manually chaining the stages."""
        out = tiny_model.forward(tiny_batch)
        reduced = tiny_model.embeddings.forward(tiny_batch.sparse_traces)
        bottom = tiny_model.bottom_mlp.forward(tiny_batch.dense_features)
        interaction = dot_feature_interaction(bottom, reduced)
        logits = tiny_model.top_mlp.forward(interaction)[:, 0]
        np.testing.assert_allclose(out.logits, logits, rtol=1e-6)

    def test_predict_returns_probabilities(self, tiny_model, tiny_batch):
        np.testing.assert_array_equal(
            tiny_model.predict(tiny_batch), tiny_model.forward(tiny_batch).probabilities
        )

    def test_deterministic_inference(self, tiny_config, trace_rng):
        model = DLRM.from_config(tiny_config, seed=11)
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 4)
        first = model.forward(batch).probabilities
        second = model.forward(batch).probabilities
        np.testing.assert_array_equal(first, second)

    def test_wrong_table_count_rejected(self, tiny_model, tiny_batch):
        from repro.workloads import DLRMBatch

        truncated = DLRMBatch(
            dense_features=tiny_batch.dense_features,
            sparse_traces=tiny_batch.sparse_traces[:-1],
        )
        with pytest.raises(ModelShapeError):
            tiny_model.forward(truncated)

    def test_wrong_dense_width_rejected(self, tiny_model, tiny_batch):
        from repro.workloads import DLRMBatch

        bad = DLRMBatch(
            dense_features=tiny_batch.dense_features[:, :-1],
            sparse_traces=tiny_batch.sparse_traces,
        )
        with pytest.raises(ModelShapeError):
            tiny_model.forward(bad)

    def test_batch_independence(self, tiny_model, tiny_config):
        """Each sample's output is independent of the other samples in the batch."""
        rng = np.random.default_rng(21)
        batch = model_batch(UniformTrace(), rng, tiny_config, 8)
        full = tiny_model.forward(batch).probabilities

        from repro.workloads import DLRMBatch, SparseTrace

        single_traces = []
        for trace in batch.sparse_traces:
            start, end = trace.offsets[2], trace.offsets[3]
            single_traces.append(
                SparseTrace(
                    indices=trace.indices[start:end],
                    offsets=np.array([0, end - start]),
                    num_rows=trace.num_rows,
                )
            )
        single = DLRMBatch(
            dense_features=batch.dense_features[2:3], sparse_traces=tuple(single_traces)
        )
        alone = tiny_model.forward(single).probabilities
        assert alone[0] == pytest.approx(full[2], rel=1e-5)


class TestWorkAccounting:
    def test_flops_and_bytes_delegate_to_config(self, tiny_model, tiny_config):
        assert tiny_model.flops_per_sample() == tiny_config.total_dense_flops_per_sample()
        assert (
            tiny_model.embedding_bytes_per_sample()
            == tiny_config.embedding_bytes_per_sample()
        )

    def test_model_summary_contains_key_facts(self, tiny_model):
        summary = tiny_model.model_summary()
        assert "tiny" in summary
        assert "embedding tables" in summary
        assert "bottom MLP" in summary


class TestLargerConfiguration:
    def test_fifty_table_model_forward(self):
        config = homogeneous_dlrm(
            "wide", num_tables=50, rows_per_table=500, gathers_per_table=2
        )
        model = DLRM.from_config(config, seed=1)
        batch = model_batch(UniformTrace(), np.random.default_rng(2), config, 3)
        out = model.forward(batch)
        assert out.interaction_output.shape == (3, config.interaction_output_dim)
        assert np.isfinite(out.probabilities).all()
