"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` names its exports once, in a
``{module: names}`` table, and imports none of them::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".fleet": ("Fleet", "FleetSpec"),
    })

The first access to an exported name imports the module that defines it
and binds the name on the package, so later accesses are plain attribute
lookups.  A command therefore loads only the modules it runs: ``repro
sweep`` never compiles the serving stack, and ``repro list-backends``
never compiles a device model.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of one package.

    Args:
        package: The package's ``__name__``.
        table: Module (relative to ``package``) -> the names it exports.
    """
    names = [name for exported in table.values() for name in exported]
    owners = {name: module for module, exported in table.items() for name in exported}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])).union(names))

    return names, __getattr__, __dir__
