"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exported its submodules' names eagerly
made ``import repro.cli`` -- and so ``repro --version`` -- load numpy and
the whole diagnosis pipeline. With :func:`lazy_exports` the package
names the same exports, and each submodule is imported when one of its
names is first read::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.core.config": ("ACTConfig",),
    })
"""

import importlib
import sys


def lazy_exports(package, exports):
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    Args:
        package: the package's ``__name__``.
        exports: mapping of absolute submodule name to the names the
            package re-exports from it.
    """
    where = {name: module for module, names in exports.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
