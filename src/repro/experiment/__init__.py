"""Declarative experiment layer: grids, result queries and memoization.

The public surface is :class:`Experiment` (fluent grid builder),
:class:`ExperimentResult` (the queryable keyed-axis result every grid
flavour returns), and :class:`ResultCache` (the memoization layer keyed on
backend/model/batch/system fingerprints).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".experiment": ("Experiment", "ExperimentKey", "ExperimentResult", "VariantSweep"),
        ".executor": ("GridExecutor", "resolve_jobs"),
        ".cache": (
            "ResultCache", "default_cache", "model_fingerprint", "override_default_cache",
            "set_default_cache", "system_fingerprint",
        ),
    },
)
