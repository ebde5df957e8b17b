"""Lazy package exports (PEP 562).

A package ``__init__`` imports nothing. It names each export once, in
one ``{name: submodule}`` table, in ``__all__`` order::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "HistoryStore": "history",
        "render_metrics": "exposition:render",  # exported under another name
        "paperdata": "paperdata",               # the submodule itself
    })

The first lookup of a name imports its submodule and stores the value
in the package namespace, so later lookups are plain attribute reads.
Importing any ``repro`` module therefore loads only what that module
itself imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``."""

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule, _, attr = table[name].partition(":")
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, attr or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
