"""Nonparametric multivariate Hawkes analysis of order-flow event streams.

Pipeline: ingest or simulate marked event streams, map them to Hawkes
components by volume bin, estimate conditional laws on a lin-log grid,
solve the Wiener-Hopf system for the kernel matrix, and recover baselines
and exogeneity ratios from the stationarity relation.

The package and its subpackages resolve their public names on first use,
so a process loads only the layers it touches.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict):
    """``__all__`` and a PEP 562 ``__getattr__`` for ``package``.

    ``exports`` maps a module, relative to ``package``, to the public names
    it defines; a name listed under ``None`` is a submodule of ``package``.
    Each name is imported when first read and then cached on the package.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if source[name] is None:
            return importlib.import_module(f".{name}", package)
        value = getattr(importlib.import_module(source[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(source), __getattr__


__all__, __getattr__ = _lazy_exports(__name__, {
    None: ("events", "simulate", "estimate", "whsolve", "report"),
    ".grids": ("build_linlog_grid", "build_quadrature"),
})
__all__.append("__version__")
