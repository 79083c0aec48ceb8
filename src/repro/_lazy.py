"""Lazy package exports (PEP 562).

A package lists its exports once, as a ``{submodule: names}`` table,
and binds the two hooks this module returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "yield_analysis": ("MonteCarloYield", "Specification"),
    })

``from repro.core import MonteCarloYield`` then imports
``repro.core.yield_analysis`` and nothing else, so a command loads only
the engines it runs (networkx, scipy.linalg and scipy.sparse stay off
the start-up path unless an engine that needs them is touched).  A
resolved name is cached in the package namespace, so each is looked up
through the hook once.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, table: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``table``'s names
    from their submodules of ``package`` on first access."""
    homes = {name: f"{package}.{module}"
             for module, names in table.items() for name in names}
    shadowed = sorted(set(homes) & set(table))
    if shadowed:
        # Importing the submodule binds its name on the package, which
        # would hide the export of the same name.
        raise ValueError(f"{package} exports shadow submodules: {shadowed}")

    def __getattr__(name: str) -> object:
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # The import statement's path, not importlib.import_module:
        # only that one is logged by ``python -X importtime``.
        __import__(home)
        value = getattr(sys.modules[home], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(homes))

    return __getattr__, __dir__
