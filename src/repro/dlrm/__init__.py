"""A from-scratch, numpy-based implementation of the DLRM recommendation model.

This package provides the *functional* substrate of the reproduction: real
embedding tables, the ``SparseLengthsSum`` gather/reduce operator (Fig. 2 of
the paper), bottom/top MLPs, the dot-product feature-interaction stage
(Fig. 3) and the end-to-end :class:`~repro.dlrm.model.DLRM` forward pass.

The performance models in :mod:`repro.cpu`, :mod:`repro.gpu` and
:mod:`repro.core` consume the *shapes* of these computations (via
:class:`~repro.config.models.DLRMConfig` and the trace models in
:mod:`repro.workloads`),
while tests and examples exercise the numerics end to end.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".embedding": (
            "DenseEmbeddingTable", "VirtualEmbeddingTable", "EmbeddingBagCollection",
            "sparse_lengths_sum",
        ),
        ".mlp": ("LinearLayer", "MLP", "relu", "sigmoid"),
        ".interaction": ("dot_feature_interaction",),
        ".model": ("DLRM", "DLRMOutput"),
        "repro.workloads.traces": ("DLRMBatch", "SparseTrace"),
    },
)
