"""The one grammar of the compact text specs.

Seven CLI flags take a spec: ``--workload``, ``--trace``, ``--autoscale``,
``--faults``, ``--updates``, ``--cache``/``--shared-cache`` and
``--shards``.  All but ``--shards`` (``N[:strategy]``, count first) read
``kind[:body]``, e.g. ``util:target=0.7,deadband=0.1``:

* :func:`split_spec` strips the spec, lowercases the kind and resolves it
  (aliases are extra keys of the kind table) with one unknown-name error.
  Only flags whose feature can be absent read ``""``/``off``/``none`` as
  no spec.
* :func:`parse_kv` splits a body of comma-separated ``key=value`` items;
  a kind with a bare-number body (``poisson:30000``) names the key it sets.
* :func:`read_number` and :func:`pop_number` read one value, and apply
  the one whole-number rule to integer parameters: ``4096.0`` and ``1e4``
  are whole, ``1.5`` is rejected.

Every malformed spec raises :class:`~repro.errors.ConfigurationError` in
the same style, whichever flag it came from.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")

#: Spellings of "no spec" for the flags whose feature can be absent.
OFF = ("", "off", "none")


def lookup(table: Mapping[str, T], name: str, what: str, optional: bool = False) -> T:
    """``table[name]``, or the one unknown-name error listing ``table``."""
    try:
        return table[name]
    except KeyError:
        off = " (or off)" if optional else ""
        raise ConfigurationError(
            f"unknown {what} {name!r}; known: {', '.join(table)}{off}"
        ) from None


def split_spec(
    spec, kinds: Mapping[str, T], what: str, optional: bool = False
) -> Tuple[Optional[T], str]:
    """Split ``kind[:body]`` into ``(kinds[kind], body)``.

    With ``optional``, ``None`` and the :data:`OFF` spellings return
    ``(None, "")``: no spec.
    """
    text = "" if spec is None else str(spec).strip()
    if optional and text.lower() in OFF:
        return None, ""
    head, _, body = text.partition(":")
    return lookup(kinds, head.strip().lower(), what, optional), body.strip()


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


def read_number(raw: str, label: str, whole: bool = False):
    """``raw`` as a float, or as an int when ``whole`` (``4096.0``, ``1e4``)."""
    try:
        number = float(raw)
    except ValueError:
        raise ConfigurationError(f"{label} is not a number: {raw!r}") from None
    if not whole:
        return number
    if not number.is_integer():
        raise ConfigurationError(f"{label} must be a whole number, got {raw!r}")
    try:
        return int(raw)  # exact past float precision
    except ValueError:
        return int(number)


def pop_number(
    values: Dict[str, str], key: str, kind: str, default=None, whole: bool = False
):
    """Remove ``key`` from ``values`` and read it (or return ``default``)."""
    raw = values.pop(key, None)
    if raw is None:
        return default
    return read_number(raw, f"{kind} parameter {key!r}", whole)


def parse_kv_numbers(
    body: str, defaults: Mapping[str, object], kind: str, positional: Optional[str] = None
) -> Dict[str, float]:
    """Parse a body of numeric parameters over a dict of defaults.

    An ``int`` default makes its key whole-numbered; a ``None`` default
    makes it required.
    """
    values = parse_kv(body, kind, known=tuple(defaults), positional=positional)
    numbers = {}
    for key, default in defaults.items():
        number = pop_number(values, key, kind, default, whole=isinstance(default, int))
        if number is None:
            raise ConfigurationError(f"{kind} spec needs {key}=<value>")
        numbers[key] = number
    return numbers
