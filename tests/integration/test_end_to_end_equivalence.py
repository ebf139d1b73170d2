"""Integration tests: the Centaur hardware datapath vs the software DLRM.

These are the core correctness claims of the reproduction: partitioning the
model across the sparse accelerator (gather/reduce in "CPU memory") and the
dense accelerator (tiled GEMMs from on-chip SRAM) must not change the
numerics relative to running everything as plain numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurDevice
from repro.dlrm import DLRM
from repro.workloads import UniformTrace, ZipfianTrace, model_batch


def build(num_tables, rows, gathers, seed, dim=32):
    config = homogeneous_dlrm(
        name=f"e2e-{num_tables}x{rows}x{gathers}",
        num_tables=num_tables,
        rows_per_table=rows,
        gathers_per_table=gathers,
        embedding_dim=dim,
        bottom_hidden=(48, 24),
        top_hidden=(32,),
    )
    model = DLRM.from_config(config, seed=seed)
    device = CentaurDevice(model, HARPV2_SYSTEM)
    return config, model, device


class TestEquivalenceAcrossShapes:
    @pytest.mark.parametrize(
        "num_tables, rows, gathers, batch",
        [
            (1, 500, 1, 1),
            (2, 1_000, 3, 4),
            (4, 2_000, 8, 8),
            (8, 1_000, 5, 16),
            (12, 300, 2, 32),
        ],
    )
    def test_probabilities_match(self, num_tables, rows, gathers, batch):
        config, model, device = build(num_tables, rows, gathers, seed=num_tables)
        batch_data = model_batch(UniformTrace(), np.random.default_rng(batch), config, batch)
        np.testing.assert_allclose(
            device.predict(batch_data),
            model.predict(batch_data),
            rtol=1e-4,
            atol=1e-5,
        )

    def test_zipfian_traffic_also_matches(self):
        config, model, device = build(4, 5_000, 10, seed=9)
        batch = model_batch(ZipfianTrace(1.1), np.random.default_rng(3), config, 8)
        np.testing.assert_allclose(
            device.predict(batch), model.predict(batch), rtol=1e-4, atol=1e-5
        )

    def test_every_intermediate_matches(self):
        config, model, device = build(4, 1_000, 6, seed=2)
        batch = model_batch(UniformTrace(), np.random.default_rng(5), config, 6)
        hardware = device.infer(batch)
        software = model.forward(batch)
        np.testing.assert_allclose(
            hardware.reduced_embeddings, software.reduced_embeddings, rtol=1e-4, atol=1e-5
        )
        np.testing.assert_allclose(
            hardware.bottom_mlp_output, software.bottom_mlp_output, rtol=1e-3, atol=1e-4
        )
        np.testing.assert_allclose(
            hardware.interaction_output, software.interaction_output, rtol=1e-3, atol=1e-3
        )
        np.testing.assert_allclose(hardware.logits, software.logits, rtol=1e-3, atol=1e-4)

    @given(
        num_tables=st.integers(min_value=1, max_value=6),
        gathers=st.integers(min_value=1, max_value=8),
        batch=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_equivalence(self, num_tables, gathers, batch, seed):
        config, model, device = build(num_tables, 400, gathers, seed=seed)
        batch_data = model_batch(UniformTrace(), np.random.default_rng(seed), config, batch)
        np.testing.assert_allclose(
            device.predict(batch_data), model.predict(batch_data), rtol=1e-3, atol=1e-4
        )


class TestMultipleRequests:
    def test_back_to_back_inferences_do_not_interfere(self):
        config, model, device = build(3, 800, 4, seed=1)
        rng = np.random.default_rng(0)
        batches = [model_batch(UniformTrace(), rng, config, 4) for _ in range(5)]
        expected = [model.predict(batch) for batch in batches]
        actual = [device.predict(batch) for batch in batches]
        for want, got in zip(expected, actual):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_varying_batch_sizes_on_one_device(self):
        config, model, device = build(3, 800, 4, seed=4)
        rng = np.random.default_rng(6)
        for batch_size in (1, 7, 16, 3):
            batch = model_batch(UniformTrace(), rng, config, batch_size)
            np.testing.assert_allclose(
                device.predict(batch), model.predict(batch), rtol=1e-4, atol=1e-5
            )
