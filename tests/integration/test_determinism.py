"""Determinism and reproducibility guarantees across the whole stack."""

import numpy as np

from repro.analysis import headline_summary
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurDevice, CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.dlrm import DLRM
from repro.workloads import UniformTrace, model_batch


class TestPerformanceModelDeterminism:
    def test_runners_are_pure_functions_of_inputs(self):
        first = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 32)
        second = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 32)
        assert first.latency_seconds == second.latency_seconds
        assert first.breakdown.stages == second.breakdown.stages

        centaur_a = CentaurRunner(HARPV2_SYSTEM).run(DLRM1, 32)
        centaur_b = CentaurRunner(HARPV2_SYSTEM).run(DLRM1, 32)
        assert centaur_a.latency_seconds == centaur_b.latency_seconds

    def test_headline_summary_reproducible(self):
        kwargs = {"models": [DLRM1], "batch_sizes": [1, 16]}
        assert headline_summary(HARPV2_SYSTEM, **kwargs) == headline_summary(
            HARPV2_SYSTEM, **kwargs
        )


class TestFunctionalDeterminism:
    def test_same_seed_same_device_outputs(self):
        config = homogeneous_dlrm(
            "det", num_tables=3, rows_per_table=1_000, gathers_per_table=4
        )
        outputs = []
        for _ in range(2):
            model = DLRM.from_config(config, seed=123)
            device = CentaurDevice(model, HARPV2_SYSTEM)
            batch = model_batch(UniformTrace(), np.random.default_rng(456), config, 8)
            outputs.append(device.predict(batch))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_different_seeds_give_different_predictions(self):
        config = homogeneous_dlrm(
            "det2", num_tables=3, rows_per_table=1_000, gathers_per_table=4
        )
        model_a = DLRM.from_config(config, seed=1)
        model_b = DLRM.from_config(config, seed=2)
        batch = model_batch(UniformTrace(), np.random.default_rng(0), config, 8)
        assert not np.allclose(model_a.predict(batch), model_b.predict(batch))
