"""Backend registry: one entry point for every device design point.

Usage::

    from repro.backends import get_backend, available_backends

    centaur = get_backend("centaur", HARPV2_SYSTEM)
    result = centaur.run(DLRM3, 64)

The three paper design points are registered under ``"cpu"``, ``"cpu-gpu"``
and ``"centaur"`` (with their paper labels as aliases).  New devices join
with :func:`register_backend` and are immediately usable by
:class:`repro.experiment.Experiment`, the serving clusters and the CLI.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Backend", "BackendCapabilities"),
        ".registry": (
            "BackendFactory", "BackendRegistration", "available_backends", "backend_registration",
            "canonical_backend_name", "get_backend", "register_backend", "resolve_backend",
            "unregister_backend",
        ),
    },
)
