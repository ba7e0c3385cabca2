"""Lazy package facades (PEP 562).

A package ``__init__`` declares which submodule provides each public
name and imports nothing until a name is first asked for, so importing
``repro.x.y`` costs ``y`` alone, not every sibling the package
re-exports.  Code inside ``repro`` imports from submodules directly.
"""

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package, exports):
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps each submodule to the public names it provides.
    The submodules resolve as attributes too (``repro.net.link``).
    """
    origin = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name in exports:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin) | set(exports))

    return __getattr__, __dir__, sorted(origin)
