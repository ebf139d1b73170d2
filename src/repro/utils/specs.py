"""The one ``key=value`` grammar of the compact text specs.

The bodies of ``--autoscale``, ``--faults``, ``--updates`` and
``--workload`` specs are comma-separated ``key=value`` items, e.g.
``util:target=0.7,deadband=0.1``.  :func:`parse_kv` splits a body into raw
strings and :func:`pop_number` reads one of them as a number; every
malformed item raises :class:`~repro.errors.ConfigurationError` in the
same style, whichever flag it came from.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.errors import ConfigurationError


def parse_kv(
    body: str,
    kind: str,
    known: Optional[Sequence[str]] = None,
    positional: Optional[str] = None,
) -> Dict[str, str]:
    """Split ``"a=1,b=2"`` into ``{"a": "1", "b": "2"}``.

    Keys are lowercased and empty items skipped.  ``known`` lists the
    accepted keys (``None`` accepts any); ``positional`` names the key a
    bare item without ``=`` sets.  A key may appear once.
    """
    values: Dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip().lower()
        if not sep:
            if positional is None:
                hint = f" (known keys: {', '.join(known)})" if known else ""
                raise ConfigurationError(
                    f"{kind} spec parameters must be key=value, got {item!r}{hint}"
                )
            key, raw = positional, item
        if key in values:
            raise ConfigurationError(f"duplicate {kind} parameter {key!r}")
        values[key] = raw.strip()
    if known is not None:
        reject_unknown(values, kind, known)
    return values


def reject_unknown(values: Mapping[str, str], kind: str, known: Sequence[str]) -> None:
    """Raise on the first key of ``values`` that ``known`` does not list."""
    for key in values:
        if key not in known:
            raise ConfigurationError(
                f"unknown {kind} parameter {key!r} (known: {', '.join(known)})"
            )


def pop_number(
    values: Dict[str, str], key: str, kind: str, default: Optional[float] = None
) -> Optional[float]:
    """Remove ``key`` from ``values`` and return it as a float (or ``default``)."""
    raw = values.pop(key, None)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{kind} parameter {key!r} is not a number: {raw!r}")


def parse_kv_numbers(body: str, defaults: Mapping[str, float], kind: str) -> Dict[str, float]:
    """Parse a body of numeric parameters over a dict of defaults."""
    values = parse_kv(body, kind, known=tuple(defaults))
    return {key: pop_number(values, key, kind, default) for key, default in defaults.items()}
