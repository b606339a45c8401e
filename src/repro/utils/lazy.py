"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes every user pay for all of them: a bare ``replay`` run needs
one controller and one Turán formula, not every estimator and analyser.
:func:`lazy_exports` builds the module-level ``__getattr__`` /
``__dir__`` pair that imports a submodule on the first access to one of
its names instead::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"turan": ("turan_bound", "em_kdn")}
    )
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, "tuple[str, ...]"]
) -> "tuple[list[str], Callable[[str], object], Callable[[], list[str]]]":
    """``(__all__, __getattr__, __dir__)`` for *package*, re-exporting *exports*.

    *exports* maps a submodule name (relative to *package*) to the names
    it provides, in ``__all__`` order.  The first access to a name
    imports its submodule and caches the value on the package, so later
    lookups are plain attribute reads.
    """
    origin = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return list(origin), __getattr__, __dir__
