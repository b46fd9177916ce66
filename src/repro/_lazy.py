"""Exports of a package hub, imported on first use (PEP 562).

A hub lists each export once, as an import in its ``if TYPE_CHECKING:``
block, which type checkers and IDEs read as usual.  Its ``else:`` branch
is ``__getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)``,
which reads that block from the hub's own file: the first access to a
name imports its defining module, and the hub keeps the value.
"""

import ast
import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    hub: str, path: str
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    with open(path, encoding="utf-8") as source:
        tree = ast.parse(source.read(), path)
    origins: Dict[str, Tuple[str, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom) and stmt.module:
                    for alias in stmt.names:
                        origins[alias.asname or alias.name] = (stmt.module, alias.name)
    namespace = sys.modules[hub].__dict__

    def __getattr__(name: str) -> object:
        if name not in origins:
            raise AttributeError(f"module {hub!r} has no attribute {name!r}")
        module, attr = origins[name]
        value = namespace[name] = getattr(importlib.import_module(module), attr)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__, list(origins)
