"""Shared fixtures for the test suite.

The fixtures deliberately use *small* DLRM configurations (a few thousand
rows per table) so functional paths, trace-driven cache simulation and the
event-driven EB-Streamer all run in milliseconds; the full Table I presets
are exercised through the analytic performance models only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import HARPV2_SYSTEM, SystemConfig
from repro.config.models import DLRMConfig, homogeneous_dlrm
from repro.dlrm import DLRM, DLRMBatch
from repro.workloads import UniformTrace, model_batch

# A long-running profile for the oracle properties, selected with
# ``--hypothesis-profile=deep``; the default profile keeps tier-1 fast.
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def system() -> SystemConfig:
    """The paper's HARPv2 evaluation platform configuration."""
    return HARPV2_SYSTEM


@pytest.fixture(scope="session")
def tiny_config() -> DLRMConfig:
    """A 4-table model small enough for exhaustive functional testing."""
    return homogeneous_dlrm(
        name="tiny",
        num_tables=4,
        rows_per_table=1_000,
        gathers_per_table=5,
        embedding_dim=32,
        bottom_hidden=(32, 16),
        top_hidden=(24,),
    )


@pytest.fixture(scope="session")
def small_config() -> DLRMConfig:
    """A slightly larger model used by integration tests."""
    return homogeneous_dlrm(
        name="small",
        num_tables=8,
        rows_per_table=4_000,
        gathers_per_table=10,
        embedding_dim=32,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def trace_rng() -> np.random.Generator:
    """One uniform-trace RNG stream per test; successive batches continue it."""
    return np.random.default_rng(42)


@pytest.fixture()
def tiny_model(tiny_config) -> DLRM:
    return DLRM.from_config(tiny_config, seed=7)


@pytest.fixture()
def tiny_batch(tiny_config, trace_rng) -> DLRMBatch:
    return model_batch(UniformTrace(), trace_rng, tiny_config, batch_size=6)
