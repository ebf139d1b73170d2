"""Quickstart: run DLRM inference on the Centaur model, end to end.

The script

1. builds a DLRM recommendation model (a scaled-down cousin of the paper's
   Table I configurations so the functional path runs in milliseconds),
2. runs a batch of inference requests both as plain software and through the
   functional Centaur device (EB-Streamer + dense accelerator complex) and
   checks that the event probabilities agree,
3. uses the calibrated performance models to compare the three design points
   of the paper (CPU-only, CPU-GPU, Centaur) on the real DLRM(1)
   configuration, printing latency, speedup and energy-efficiency.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CentaurDevice,
    DLRM,
    Experiment,
    UniformTrace,
)
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.workloads import model_batch
from repro.utils import TextTable, seconds_to_human


def functional_demo() -> None:
    """Run real numbers through the functional Centaur datapath."""
    print("=" * 72)
    print("1. Functional inference: software DLRM vs the Centaur datapath")
    print("=" * 72)

    config = homogeneous_dlrm(
        name="quickstart-model",
        num_tables=8,
        rows_per_table=50_000,
        gathers_per_table=20,
    )
    model = DLRM.from_config(config, seed=0)
    print(model.model_summary())

    batch = model_batch(UniformTrace(), np.random.default_rng(1), config, batch_size=16)

    software_probabilities = model.predict(batch)
    device = CentaurDevice(model, HARPV2_SYSTEM)
    hardware_probabilities = device.predict(batch)

    max_error = float(np.max(np.abs(software_probabilities - hardware_probabilities)))
    print(f"\nbatch size                  : {batch.batch_size}")
    print(f"embedding lookups in batch  : {batch.total_lookups}")
    print(f"first four probabilities    : {np.round(hardware_probabilities[:4], 4)}")
    print(f"max |software - hardware|   : {max_error:.2e}")
    assert max_error < 1e-4, "the accelerator datapath must match the software model"


def performance_demo() -> None:
    """Compare the three design points on the paper's DLRM(1) configuration."""
    print()
    print("=" * 72)
    print("2. Performance model: CPU-only vs CPU-GPU vs Centaur on DLRM(1)")
    print("=" * 72)

    batch_sizes = (1, 4, 16, 32, 64, 128)
    grid = (
        Experiment(HARPV2_SYSTEM)
        .backends("cpu", "cpu-gpu", "centaur")
        .models(DLRM1)
        .batch_sizes(batch_sizes)
        .run()
    )

    table = TextTable(
        [
            "batch",
            "CPU-only",
            "CPU-GPU",
            "Centaur",
            "speedup vs CPU",
            "energy-eff vs CPU",
        ],
        title="End-to-end inference latency (DLRM(1))",
    )
    for batch_size in batch_sizes:
        cpu_result = grid.get("cpu", DLRM1.name, batch_size)
        gpu_result = grid.get("cpu-gpu", DLRM1.name, batch_size)
        centaur_result = grid.get("centaur", DLRM1.name, batch_size)
        table.add_row(
            [
                batch_size,
                seconds_to_human(cpu_result.latency_seconds),
                seconds_to_human(gpu_result.latency_seconds),
                seconds_to_human(centaur_result.latency_seconds),
                f"{centaur_result.speedup_over(cpu_result):.2f}x",
                f"{centaur_result.energy_efficiency_over(cpu_result):.2f}x",
            ]
        )
    print(table.render())

    result = grid.get("centaur", DLRM1.name, 32)
    print("\nCentaur stage breakdown at batch 32:")
    for stage, seconds in result.breakdown.stages.items():
        print(f"  {stage:<6} {seconds_to_human(seconds):>12}  ({result.breakdown.fraction(stage) * 100:5.1f}%)")


def main() -> None:
    functional_demo()
    performance_demo()
    print("\nQuickstart finished successfully.")


if __name__ == "__main__":
    main()
