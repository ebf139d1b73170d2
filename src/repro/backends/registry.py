"""String-keyed backend registry.

The registry is the single place that maps device names to runner
factories.  Everything above the device models — :class:`repro.experiment.
Experiment`, the figure functions, serving clusters, the CLI — resolves
backends through it, so adding a new device is one :func:`register_backend`
call instead of a cross-cutting edit.

Names are case-insensitive and each registration may carry aliases; the
paper's design-point labels (``"CPU-only"``, ``"CPU-GPU"``, ``"Centaur"``)
are registered as aliases of ``"cpu"`` / ``"cpu-gpu"`` / ``"centaur"`` so
legacy call sites keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.backends.base import Backend, BackendCapabilities
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError

#: A factory builds a backend instance for one hardware platform.
BackendFactory = Callable[[SystemConfig], Backend]


@dataclass(frozen=True)
class BackendRegistration:
    """One registry entry: factory plus the metadata the tooling renders."""

    name: str
    factory: BackendFactory
    design_point: str
    description: str = ""
    aliases: Tuple[str, ...] = ()
    capabilities: BackendCapabilities = field(default_factory=BackendCapabilities)


_REGISTRY: Dict[str, BackendRegistration] = {}
_ALIASES: Dict[str, str] = {}
_BUILTINS_LOADED = False


def _normalize(name: str) -> str:
    return name.strip().lower()


def _ensure_builtins() -> None:
    """Import the built-in registrations lazily.

    :mod:`repro.backends.builtin` registers through this module, so
    importing it here at module level would be circular; the first
    registry lookup triggers it instead.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.backends.builtin  # noqa: F401  (registers on import)


def register_backend(
    name: str,
    factory: BackendFactory,
    *,
    design_point: str = "",
    description: str = "",
    aliases: Tuple[str, ...] = (),
    capabilities: BackendCapabilities = BackendCapabilities(),
    overwrite: bool = False,
) -> BackendRegistration:
    """Register a backend factory under a canonical name.

    Args:
        name: Canonical registry key (stored lowercase).
        factory: Callable building a backend for a :class:`SystemConfig`.
        design_point: Paper-facing label; defaults to ``name``.
        description: One-line summary shown by ``repro list-backends``.
        aliases: Additional lookup keys (also case-insensitive).
        capabilities: Feature flags of the backend.
        overwrite: Allow replacing an existing registration.

    Returns:
        The stored :class:`BackendRegistration`.

    Raises:
        ConfigurationError: On an empty name or a duplicate registration
            without ``overwrite``.
    """
    # Load the built-ins first so a custom registration can never claim one
    # of their names/aliases just by running before the first lookup.
    # Reentrant calls from builtin.py skip this (_BUILTINS_LOADED is already
    # set while it imports).
    _ensure_builtins()
    key = _normalize(name)
    if not key:
        raise ConfigurationError("backend name must be non-empty")
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass overwrite=True to replace it"
        )
    registration = BackendRegistration(
        name=key,
        factory=factory,
        design_point=design_point or name,
        description=description,
        aliases=tuple(_normalize(alias) for alias in aliases),
        capabilities=capabilities,
    )
    # Validate every alias before mutating any registry state, so a failed
    # registration cannot leave a half-registered backend behind.  overwrite
    # only permits replacing *this* name's registration — an alias owned by
    # a different backend can never be stolen.
    for alias in registration.aliases:
        if alias in _REGISTRY or (alias in _ALIASES and _ALIASES[alias] != key):
            raise ConfigurationError(
                f"alias {alias!r} collides with a registered backend"
            )
    _REGISTRY[key] = registration
    for alias in registration.aliases:
        _ALIASES[alias] = key
    return registration


def unregister_backend(name: str) -> None:
    """Remove a registration and its aliases (primarily for tests)."""
    key = canonical_backend_name(name)
    registration = _REGISTRY.pop(key)
    for alias in registration.aliases:
        if _ALIASES.get(alias) == key:
            del _ALIASES[alias]


def canonical_backend_name(name: str) -> str:
    """Resolve a name or alias to the canonical registry key.

    Raises:
        ConfigurationError: For names no registration claims.
    """
    _ensure_builtins()
    key = _normalize(name)
    if key in _REGISTRY:
        return key
    if key in _ALIASES:
        return _ALIASES[key]
    raise ConfigurationError(
        f"unknown backend {name!r}; available: {', '.join(available_backends())}"
    )


def available_backends() -> Tuple[str, ...]:
    """Canonical names of every registered backend, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def backend_registration(name: str) -> BackendRegistration:
    """Full registration record for a name or alias."""
    return _REGISTRY[canonical_backend_name(name)]


def get_backend(name: str, system: SystemConfig) -> Backend:
    """Build a backend instance for one hardware platform.

    This is the name-based way to obtain a runner; the registry factories
    build the concrete runner classes (``CPUOnlyRunner(system)`` and
    friends), which can also be constructed directly.
    """
    return backend_registration(name).factory(system)


def resolve_backend(spec, system: SystemConfig) -> Backend:
    """Accept either a registry name or an already-built backend instance."""
    if isinstance(spec, str):
        return get_backend(spec, system)
    if hasattr(spec, "run") and hasattr(spec, "design_point"):
        return spec
    raise ConfigurationError(
        f"cannot resolve backend from {spec!r}; pass a registry name or a runner"
    )
