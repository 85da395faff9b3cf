"""Package façades that resolve their exported names on first use.

Importing any submodule runs its package's ``__init__`` first.  A façade
that imports what it re-exports therefore makes *every* process load
everything the package offers — a machine daemon, which only hosts
prepared modules, would import the transformer pipeline, the MIL
parser, the bus and the coordinator just to find ``serve_host``.  The
four façades (``repro``, ``repro.bus``, ``repro.core``,
``repro.reconfig``) instead keep a submodule -> names table beside
``__all__`` and import a submodule when one of its names is first asked
for (PEP 562); the resolved object is cached in the package namespace,
so only the first access of a name goes through here.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``exports`` maps each submodule to the names it defines."""
    package = namespace["__name__"]
    home = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
