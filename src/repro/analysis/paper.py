"""The paper's published numbers: the one place the reproduction compares against.

Every number of Hwang et al., *Centaur* (ISCA 2020), that this repository
prints beside its own result or checks a result against is one
:class:`PaperClaim` in :data:`CLAIMS`, measured once by
``tests/analysis/test_paper_ledger.py``.  A ``matches`` claim holds the
reproduced value within ``tolerance`` (relative) of ``published``, or at most
``published`` for an ``upper_bound``.  A ``deviates`` claim says why and holds
the value within ``tolerance`` of ``pinned``, so drift either way fails; a
change that alters pricing updates the pinned values in the same change.

Tolerances: 0 for counts, watts, peak FLOP/s and pinned MLP bytes; 0.001 for
Table III logic cells (0.06% off today); 0.01 for Table II ALMs and bits and
every pinned float; 0.02 for RAM blocks (1.6%) and the gather peak; 0.04 for
Table III bits (3.1%); 0.05 for peak MPKI (2.4%); 0.10 for the "~" CPU-only
vs CPU-GPU ratios (5.2%); 1/7 for Fig. 7's 15-20 GB/s batch-128 gathers,
which is that range about its 17.5 GB/s midpoint (13%); 0.15 for the ~45%
peak EMB miss rate (11%).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Tuple

__all__ = ["PaperClaim", "CLAIMS", "CLAIMS_BY_KEY"]


@dataclass(frozen=True)
class PaperClaim:
    """One published number and how the reproduction relates to it.

    ``key`` is built from the repo's own row labels (``table3.Dense/MLP
    unit.dsps``) so renderers can look it up.  Counts are ints, as the tables
    print them; ``published`` and ``pinned`` are in ``unit``.
    """

    key: str
    source: str
    published: float
    unit: str
    tolerance: float
    status: str = "matches"
    reason: str = ""
    pinned: Optional[float] = None
    upper_bound: bool = False


#: Table I: model, tables, gathers per table, table bytes, MLP bytes, and the
#: reproduced MLP bytes, which deviate.
_TABLE1 = (
    ("DLRM(1)", 5, 20, 128_000_000, 57_400, 69_252),
    ("DLRM(2)", 50, 20, 1_280_000_000, 57_400, 391_812),
    ("DLRM(3)", 5, 80, 128_000_000, 57_400, 69_252),
    ("DLRM(4)", 50, 80, 1_280_000_000, 57_400, 391_812),
    ("DLRM(5)", 50, 80, 3_200_000_000, 57_400, 391_812),
    ("DLRM(6)", 5, 2, 128_000_000, 557_000, 511_492),
)
_MLP_BYTES_REASON = (
    "Table I publishes MLP sizes, not layer shapes. The chosen shapes give 69.25 KB "
    "(5 tables), 511.49 KB (DLRM(6)) and 391.81 KB for the 50-table models, whose "
    "top MLP widens with the 50-table interaction output."
)

#: Table II, Centaur row: resource, used, unit, tolerance.
_TABLE2 = (
    ("ALM", 127_719, "ALMs", 0.01),
    ("Block memory bits", 23_700_000, "bits", 0.01),
    ("RAM blocks", 2_238, "blocks", 0.02),
    ("DSP", 784, "DSPs", 0.0),
    ("PLL", 48, "PLLs", 0.0),
)

#: Table III: group/module, then one value per ``_TABLE3_COLUMNS`` entry.
_TABLE3_COLUMNS = (
    ("lc_comb", "LCs", 0.001),
    ("lc_reg", "LCs", 0.001),
    ("block_memory_bits", "bits", 0.04),
    ("dsps", "DSPs", 0.0),
)
_TABLE3 = (
    ("Sparse/Base ptr reg.", 98, 211, 0, 0),
    ("Sparse/Gather unit", 295, 216, 0, 0),
    ("Sparse/Reduction unit", 108, 8_260, 0, 96),
    ("Sparse/SRAM arrays", 350, 98, 12_200_000, 0),
    ("Dense/MLP unit", 40_000, 131_000, 2_300_000, 512),
    ("Dense/Feat. int. unit", 10_000, 33_000, 593_000, 128),
    ("Dense/SRAM arrays", 1_000, 11_000, 1_600_000, 48),
    ("Dense/Weights", 13, 77, 5_200_000, 0),
    ("Others/Misc.", 587, 6_000, 608_000, 0),
)

#: Table IV: design point, watts.
_TABLE4 = (("CPU-only", 80.0), ("CPU-GPU", 147.0), ("Centaur", 74.0))


def _table_claims() -> Iterator[PaperClaim]:
    for model, tables, gathers, table_bytes, mlp_bytes, mlp_pinned in _TABLE1:
        yield PaperClaim(f"table1.{model}.num_tables", "Table I", tables, "tables", 0.0)
        yield PaperClaim(f"table1.{model}.gathers_per_table", "Table I", gathers, "gathers", 0.0)
        yield PaperClaim(f"table1.{model}.table_bytes", "Table I", table_bytes, "bytes", 0.0)
        yield PaperClaim(
            f"table1.{model}.mlp_bytes", "Table I", mlp_bytes, "bytes", 0.0,
            "deviates", _MLP_BYTES_REASON, mlp_pinned,
        )
    for resource, used, unit, tolerance in _TABLE2:
        yield PaperClaim(f"table2.{resource}", "Table II", used, unit, tolerance)
    for module, *values in _TABLE3:
        for (column, unit, tolerance), value in zip(_TABLE3_COLUMNS, values):
            yield PaperClaim(f"table3.{module}.{column}", "Table III", value, unit, tolerance)
    for design_point, watts in _TABLE4:
        yield PaperClaim(f"table4.{design_point}", "Table IV", watts, "W", 0.0)


def _deviates(key, source, published, unit, pinned, reason) -> PaperClaim:
    return PaperClaim(key, source, published, unit, 0.01, "deviates", reason, pinned)


_FIGURE_CLAIMS = (
    _deviates(
        "headline.centaur_speedup_min", "Abstract; Fig. 14", 1.7, "x", 0.8557,
        "Amdahl floor (Amdahl, AFIPS 1967): Centaur prices a batch as the serial sum "
        "IDX + EMB + DNF + MLP + Other, so S <= g/f, with f the EMB share of CPU-only "
        "latency and g the Centaur/CPU-only gather throughput ratio. At the minimum, "
        "DLRM(4) batch 128, f = 0.836, g = 0.784 and S = 0.856. The paper's >= 1.7x "
        "beside its ~0.67x gather dip needs f <= 0.39; the EMB share here is twice that.",
    ),
    _deviates(
        "headline.centaur_speedup_max", "Abstract; Fig. 14", 17.2, "x", 9.211,
        "The maximum is DLRM(2) at batch 1, where the MLP is 79% of Centaur latency, so "
        "GEMM pricing sets it; which dataflow Fig. 12 shows is not settled. Open pricing "
        "fault: MLPUnit.gemm_cycles charges t * k_tiles merge cycles whenever output "
        "tiles cannot fill the PE array, even when k_tiles == 1 and there is no K split "
        "to merge. Mending it moves the sweep's output and the benchmark digests.",
    ),
    _deviates(
        "headline.centaur_efficiency_min", "Abstract; Fig. 15(b)", 1.7, "x", 0.9251,
        "Follows the speedup floor: the gain is the speedup times 80 W / 74 W.",
    ),
    _deviates(
        "headline.centaur_efficiency_max", "Abstract; Fig. 15(b)", 19.5, "x", 9.958,
        "Follows the speedup ceiling: the gain is the speedup times 80 W / 74 W.",
    ),
    _deviates(
        "headline.gather_bw_improvement_mean", "Fig. 13(a)", 27, "x", 11.56,
        "The CPU-only gather baseline is less pessimistic at small batch than the "
        "paper's, so the batch-1 ratios that dominate the mean (max 68.0x) land lower.",
    ),
    _deviates(
        "headline.gather_bw_improvement_min", "Fig. 13(a)", 0.67, "x", 0.7610,
        "The minimum is DLRM(3) at batch 128, where CPU-only gathers reach 15.6 GB/s "
        "against Centaur's 11.9 GB/s plateau; ~0.67x implies about 17.8 GB/s.",
    ),
    PaperClaim(
        "fig7.DLRM(4).cpu_gather_batch_128", "Fig. 7(a); Sec. VI-B", 17.5e9, "B/s", 1 / 7
    ),
    PaperClaim(
        "fig7.DLRM(5).cpu_gather_batch_128", "Fig. 7(a); Sec. VI-B", 17.5e9, "B/s", 1 / 7
    ),
    PaperClaim("fig7.cpu_gather_batch_1_max", "Fig. 7(a)", 2e9, "B/s", 0.0, upper_bound=True),
    PaperClaim("sec6.centaur_link_fraction_min", "Sec. VI-B", 0.68, "share", 0.01),
    PaperClaim("headline.cpu_vs_gpu_performance_geomean", "Fig. 15(a)", 1.1, "x", 0.10),
    PaperClaim("headline.cpu_vs_gpu_efficiency_geomean", "Fig. 15(b)", 1.9, "x", 0.10),
    PaperClaim("fig13.centaur_gather_peak", "Fig. 13(a); Sec. VI-B", 11.9e9, "B/s", 0.02),
    _deviates(
        "fig14.dlrm6_average_speedup", "Fig. 14", 6.2, "x", 3.784,
        "DLRM(6) gathers 2 rows per table, so the GEMM pricing behind the speedup "
        "ceiling sets its speedup: 2.31x at batch 1, rising to 5.05x at batch 32.",
    ),
    _deviates(
        "fig5.emb_share_max", "Fig. 5", 0.79, "share", 0.8959,
        "The CPU-only EMB share peaks at DLRM(5) batch 1; the same excess share sets "
        "the speedup floor.",
    ),
    PaperClaim("fig6.emb_llc_miss_rate_max", "Fig. 6(a)", 0.45, "share", 0.15),
    PaperClaim("fig6.emb_mpki_max", "Fig. 6(b)", 6.5, "MPKI", 0.05),
    PaperClaim("fig6.mlp_llc_miss_rate_max", "Fig. 6(a)", 0.20, "share", 0.0, upper_bound=True),
    _deviates(
        "sensitivity.cpu_gather_batch_4096", "Sec. III (footnote)", 50e9, "B/s", 19.14e9,
        "The footnote quotes CPU-only gathers above 50 GB/s past batch 2048. The "
        "analytic CPU model is more conservative there: 19.1 GB/s for DLRM(4) at "
        "batch 4096, a quarter of the 77 GB/s DRAM peak.",
    ),
    PaperClaim("dense.peak_flops", "Sec. IV", 313e9, "FLOP/s", 0.0),
)

#: Every published number the repository compares against, tables first.
CLAIMS: Tuple[PaperClaim, ...] = (*_table_claims(), *_FIGURE_CLAIMS)

#: Read-only index of :data:`CLAIMS` by key.
CLAIMS_BY_KEY: Mapping[str, PaperClaim] = MappingProxyType({c.key: c for c in CLAIMS})
