"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that re-exports names from its submodules would
import every one of them (and NumPy behind them) the moment anything
under the package is imported.  Instead each package declares a
``name -> submodule`` table and installs the module-level ``__getattr__``
and ``__dir__`` built here: a public name imports its submodule on first
access and is then bound in the package namespace, so later lookups are
ordinary global lookups.  ``from package import name`` and
``from package import *`` resolve through the same ``__getattr__``.

A lazy table cannot re-export a function or class under the name of a
submodule: importing that submodule rebinds the package attribute to
the module.  That is why :mod:`repro.softfloat`, whose ``rmse``
function lives in its ``rmse`` module, stays eager.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Optional, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Dict[str, Optional[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__``/``__dir__`` over ``exports``.

    ``exports`` maps each public name to the dotted path of the submodule
    defining it, relative to the package (``"cluster"``, ``"core.ntx"``),
    or to ``None`` when the name is itself a submodule.  Unknown names
    raise ``AttributeError`` naming the package.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if submodule is None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
