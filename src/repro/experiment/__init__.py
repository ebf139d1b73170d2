"""Declarative experiment layer: grids, result queries and memoization.

The public surface is :class:`Experiment` (fluent grid builder),
:class:`ExperimentResult` (the queryable keyed-axis result every grid
flavour returns), and :class:`ResultCache` (the memoization layer keyed on
backend/model/batch/system fingerprints).
"""

from repro.experiment.cache import (
    ResultCache,
    default_cache,
    model_fingerprint,
    override_default_cache,
    set_default_cache,
    system_fingerprint,
)
from repro.experiment.executor import GridExecutor, resolve_jobs
from repro.experiment.experiment import (
    Experiment,
    ExperimentKey,
    ExperimentResult,
    VariantSweep,
)

__all__ = [
    "Experiment",
    "ExperimentKey",
    "ExperimentResult",
    "GridExecutor",
    "ResultCache",
    "VariantSweep",
    "default_cache",
    "model_fingerprint",
    "override_default_cache",
    "resolve_jobs",
    "set_default_cache",
    "system_fingerprint",
]
