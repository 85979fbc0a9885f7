"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that re-exported its public names with plain
``from .x import Name`` statements would import every submodule, and
everything those import, whenever any module of the package is
imported.  Building one reference simulation would then load the
sweep runtime and its process pool, and every CLI subcommand every
layer.  Instead each ``__init__`` names the submodule that defines
each public name and installs the ``__getattr__`` / ``__dir__`` pair
built here: a submodule is imported when one of its names is first
read, and the name is then cached in the package namespace, so every
later read is a plain attribute lookup.  ``__all__`` stays the
explicit public list, so ``from package import *`` resolves every
name (and imports what it needs).

To see what an entry path loads, run it under ``python -X importtime``.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of *package*'s ``__init__``.

    *exports* maps each submodule, relative to *package* (``".config"``),
    to the public names it defines.  A read of any other attribute
    imports the submodule of that name, as an eager ``__init__`` that
    had imported it would have exposed it, or raises
    ``AttributeError``.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
