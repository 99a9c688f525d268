"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package names the submodule that defines each of its public names;
the submodule is imported when the name is first read, and the value is
then kept in the package namespace.  A process therefore loads only the
modules its code path uses — which matters because a fresh process
compiles the source of every module it imports when no bytecode is
cached.
"""

from __future__ import annotations

from collections.abc import Callable
from importlib import import_module
from typing import Any


def exports(
    package: str, namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a relative submodule name (``".optimize"``) to the
    public names it defines; ``namespace`` is the package's ``globals()``.
    """
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
