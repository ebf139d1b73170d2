"""The paper-claims ledger: one measurement and one check per published number.

Every case measures from one full sweep of the paper grid (the table
functions, the headline summary and the figure maxima all read design
points the sweep already priced); only the footnote's far-batch gather
rate needs one more design point.  A ``matches`` claim must sit within its
tolerance of the paper; a ``deviates`` claim must sit within its tolerance
of its pinned reproduced value, so moving either way fails until the ledger
is updated on purpose.
"""

from operator import attrgetter

import pytest

from repro.analysis import (
    batch_size_sweep,
    headline_summary,
    table1_model_configurations,
    table2_fpga_utilization,
    table3_module_resources,
    table4_power,
)
from repro.analysis.paper import CLAIMS, CLAIMS_BY_KEY
from repro.config import HARPV2_SYSTEM, PAPER_BATCH_SIZES, PAPER_MODELS
from repro.experiment import Experiment
from repro.utils.stats_utils import geometric_mean

HEADLINE_METRICS = (
    "centaur_speedup_min",
    "centaur_speedup_max",
    "centaur_efficiency_min",
    "centaur_efficiency_max",
    "gather_bw_improvement_mean",
    "gather_bw_improvement_min",
    "cpu_vs_gpu_performance_geomean",
    "cpu_vs_gpu_efficiency_geomean",
)


@pytest.fixture(scope="module")
def pairs():
    """``(Centaur, CPU-only)`` results at every point of one full paper-grid sweep."""
    sweep = Experiment(HARPV2_SYSTEM).run()
    return [
        (sweep.get("Centaur", model.name, batch), sweep.get("CPU-only", model.name, batch))
        for model in PAPER_MODELS
        for batch in PAPER_BATCH_SIZES
    ]


@pytest.fixture(scope="module")
def measured(pairs):
    """The reproduced value of every claim, keyed like :data:`CLAIMS`."""
    values = {}

    def record(key, value):
        assert key not in values, f"{key} measured twice"
        values[key] = value

    for row in table1_model_configurations():
        for column in ("num_tables", "gathers_per_table", "table_bytes", "mlp_bytes"):
            record(f"table1.{row.model_name}.{column}", getattr(row, column))
    for row in table2_fpga_utilization():
        record(f"table2.{row.resource}", row.used)
    for module in table3_module_resources():
        for column in ("lc_comb", "lc_reg", "block_memory_bits", "dsps"):
            record(f"table3.{module.group}/{module.name}.{column}", getattr(module, column))
    for row in table4_power():
        record(f"table4.{row.design_point}", row.watts)

    summary = headline_summary(HARPV2_SYSTEM)
    for metric in HEADLINE_METRICS:
        record(f"headline.{metric}", summary[metric])
    record(
        "fig13.centaur_gather_peak",
        max(centaur.effective_embedding_throughput for centaur, _ in pairs),
    )
    record(
        "fig14.dlrm6_average_speedup",
        geometric_mean(
            [
                centaur.speedup_over(cpu)
                for centaur, cpu in pairs
                if centaur.model_name == "DLRM(6)"
            ]
        ),
    )
    record("fig5.emb_share_max", max(cpu.breakdown.fraction("EMB") for _, cpu in pairs))
    record(
        "fig6.emb_llc_miss_rate_max",
        max(cpu.embedding_traffic.llc.miss_rate for _, cpu in pairs),
    )
    record("fig6.emb_mpki_max", max(cpu.embedding_traffic.mpki for _, cpu in pairs))
    record(
        "fig6.mlp_llc_miss_rate_max", max(cpu.mlp_traffic.llc.miss_rate for _, cpu in pairs)
    )
    (far_batch,) = batch_size_sweep(HARPV2_SYSTEM, batch_sizes=(4096,))
    record("sensitivity.cpu_gather_batch_4096", far_batch.cpu_throughput)
    record("dense.peak_flops", HARPV2_SYSTEM.fpga.peak_flops)
    return values


def test_ledger_integrity(measured):
    keys = [claim.key for claim in CLAIMS]
    assert len(keys) == len(set(keys)) == len(CLAIMS_BY_KEY)
    assert set(measured) == set(keys)
    for claim in CLAIMS:
        assert claim.status in ("matches", "deviates"), claim.key
        assert 0.0 <= claim.tolerance <= 0.25, claim.key
        if claim.status == "deviates":
            assert claim.reason and claim.pinned is not None, claim.key
            assert claim.pinned != pytest.approx(claim.published, rel=claim.tolerance), (
                f"{claim.key} is pinned within tolerance of the paper: mark it matches"
            )
        else:
            assert not claim.reason and claim.pinned is None, claim.key


@pytest.mark.parametrize("claim", CLAIMS, ids=attrgetter("key"))
def test_claim(claim, measured):
    value = measured[claim.key]
    if claim.upper_bound:
        assert value <= claim.published
    elif claim.status == "matches":
        assert value == pytest.approx(claim.published, rel=claim.tolerance)
    else:
        assert value == pytest.approx(claim.pinned, rel=claim.tolerance), claim.reason


def test_speedup_floor_is_the_amdahl_bound(pairs):
    """Centaur prices a batch as a serial sum of stages, so its speedup S over
    CPU-only cannot exceed g/f: g the gather throughput ratio, f the EMB
    share of CPU-only latency.  The floor claim's reason quotes all three."""
    centaur, cpu = min(pairs, key=lambda pair: pair[0].speedup_over(pair[1]))
    speedup = centaur.speedup_over(cpu)
    emb_share = cpu.breakdown.fraction("EMB")
    gather_ratio = centaur.effective_embedding_throughput / cpu.effective_embedding_throughput
    assert speedup <= gather_ratio / emb_share

    reason = CLAIMS_BY_KEY["headline.centaur_speedup_min"].reason
    assert f"{centaur.model_name} batch {centaur.batch_size}" in reason
    for name, value in (("f", emb_share), ("g", gather_ratio), ("S", speedup)):
        assert f"{name} = {value:.3f}" in reason
