"""Kernel function specifications for Hawkes models.

Every kernel is causal (zero for t < 0) and exposes its L1 norm, either in
closed form or by quadrature.  ``upper_bound_from_vec(taus)`` bounds
``sup_{u >= tau} phi(u)`` at each lag ``tau``, non-increasing in ``tau``;
the thinning simulator relies on it for its dominating rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._jsonio import checked, numbers

__all__ = [
    "KernelSpec",
    "ZeroKernel",
    "ExponentialKernel",
    "SumOfExponentialsKernel",
    "PowerLawKernel",
    "TabulatedKernel",
    "kernel_from_dict",
]


class KernelSpec:
    """Common interface; concrete kernels subclass this."""

    def value(self, t):
        raise NotImplementedError

    def norm(self) -> float:
        raise NotImplementedError

    def positive_norm(self) -> float:
        """Integral of ``max(phi, 0)``; used for positive-part stability."""
        raise NotImplementedError

    def nonnegative(self) -> bool:
        """Whether the kernel is pointwise nonnegative (linear models
        require it; positive-part models do not)."""
        end = self.support(1e-12)
        if end <= 0:
            return True
        t = np.linspace(0.0, end, 4001)
        return bool(np.min(self.value(t)) >= -1e-12)

    def support(self, eps: float = 1e-8) -> float:
        """Lag beyond which ``|phi|`` stays below ``eps``."""
        raise NotImplementedError

    def upper_bound_from_vec(self, taus: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SumOfExponentialsKernel(KernelSpec):
    """``phi(t) = sum_k alpha_k * beta_k * exp(-beta_k t)``; the L1 norm is
    the sum of the ``alpha_k``, which may be negative (inhibitory terms for
    positive-part models).  No terms is the zero kernel.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.terms:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("alpha and beta must be finite")
            if b <= 0:
                raise ValueError("beta must be positive")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, b in self.terms:
            out = out + a * b * np.exp(-b * t)
        return np.where(t >= 0, out, 0.0)

    def norm(self) -> float:
        return float(sum(a for a, _ in self.terms))

    def positive_norm(self) -> float:
        if all(a >= 0 for a, _ in self.terms):
            return self.norm()
        if all(a <= 0 for a, _ in self.terms):
            return 0.0
        return _positive_norm_by_quadrature(self)

    def nonnegative(self) -> bool:
        if all(a >= 0 for a, _ in self.terms):
            return True
        if all(a <= 0 for a, _ in self.terms):
            return False
        return super().nonnegative()

    def support(self, eps: float = 1e-8) -> float:
        return max((np.log(abs(a) * b / eps) / b for a, b in self.terms
                    if abs(a) * b > eps), default=0.0)

    def upper_bound_from_vec(self, taus: np.ndarray) -> np.ndarray:
        taus = np.maximum(np.asarray(taus, dtype=float), 0.0)
        out = np.zeros_like(taus)
        for a, b in self.terms:
            if a > 0:
                out += a * b * np.exp(-b * taus)
        return out

    def to_dict(self) -> dict:
        if not self.terms:
            return {"type": "zero"}
        if len(self.terms) == 1:
            (a, b), = self.terms
            return {"type": "exponential", "alpha": float(a), "beta": float(b)}
        return {"type": "sum_of_exponentials",
                "terms": [[float(a), float(b)] for a, b in self.terms]}


def ZeroKernel() -> SumOfExponentialsKernel:
    """The zero kernel: an empty sum of exponentials."""
    return SumOfExponentialsKernel(())


def ExponentialKernel(alpha: float, beta: float) -> SumOfExponentialsKernel:
    """``phi(t) = alpha * beta * exp(-beta t)``; ``alpha`` is the L1 norm."""
    return SumOfExponentialsKernel(((alpha, beta),))


@dataclass(frozen=True)
class PowerLawKernel(KernelSpec):
    """``phi(t) = c * (t + t0)^(-gamma)`` with ``gamma > 1``."""

    c: float
    gamma: float
    t0: float

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1 for an integrable kernel")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.c * (np.maximum(t, 0.0) + self.t0) ** -self.gamma, 0.0)

    def norm(self) -> float:
        return self.c * self.t0 ** (1.0 - self.gamma) / (self.gamma - 1.0)

    def positive_norm(self) -> float:
        return max(self.norm(), 0.0)

    def nonnegative(self) -> bool:
        return self.c >= 0.0

    def support(self, eps: float = 1e-8) -> float:
        if self.c == 0:
            return 0.0
        return max((abs(self.c) / eps) ** (1.0 / self.gamma) - self.t0, 0.0)

    def upper_bound_from_vec(self, taus: np.ndarray) -> np.ndarray:
        taus = np.maximum(np.asarray(taus, dtype=float), 0.0)
        if self.c <= 0:
            return np.zeros_like(taus)
        return self.c * (taus + self.t0) ** -self.gamma

    def to_dict(self) -> dict:
        return {"type": "power_law", "c": float(self.c),
                "gamma": float(self.gamma), "t0": float(self.t0)}


@dataclass(frozen=True)
class TabulatedKernel(KernelSpec):
    """Piecewise-linear kernel through ``(grid, values)``, zero outside
    ``[0, grid[-1]]``.  Values may be negative.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    # the tables as arrays, and the running maximum of the values from each
    # grid point to the end, for the evaluations the simulator repeats
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _suffix_max: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.grid) != len(self.values) or len(self.grid) < 2:
            raise ValueError("grid and values must match and have >= 2 points")
        g = np.asarray(self.grid)
        if g[0] < 0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be nonnegative and strictly increasing")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "_grid", g)
        object.__setattr__(self, "_values", v)
        object.__setattr__(self, "_suffix_max", np.maximum.accumulate(v[::-1])[::-1])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._grid, self._values, left=0.0, right=0.0)
        return np.where((t >= 0) & (t <= self.grid[-1]), out, 0.0)

    def norm(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def positive_norm(self) -> float:
        return float(np.trapezoid(np.maximum(self.values, 0.0), self.grid))

    def nonnegative(self) -> bool:
        return bool(np.min(self.values) >= 0.0)

    def support(self, eps: float = 1e-8) -> float:
        v = np.abs(np.asarray(self.values))
        above = np.nonzero(v > eps)[0]
        if len(above) == 0:
            return 0.0
        last = min(int(above[-1]) + 1, len(self.grid) - 1)
        return float(self.grid[last])

    def upper_bound_from_vec(self, taus: np.ndarray) -> np.ndarray:
        # piecewise-linear segments attain their maxima at the grid points
        taus = np.maximum(np.asarray(taus, dtype=float), 0.0)
        g = self._grid
        idx = np.searchsorted(g, taus, side="left")
        out = np.where(idx < len(g),
                       self._suffix_max[np.minimum(idx, len(g) - 1)], 0.0)
        out = np.maximum(out, self.value(taus))
        return np.where(taus >= g[-1], 0.0, np.maximum(out, 0.0))

    def to_dict(self) -> dict:
        return {"type": "tabulated", "grid": [float(x) for x in self.grid],
                "values": [float(x) for x in self.values]}


_POSITIVE_NORM_NODES = 20001


def _positive_norm_by_quadrature(kernel: KernelSpec) -> float:
    end = kernel.support(1e-10)
    if end <= 0:
        return 0.0
    t = np.linspace(0.0, end, _POSITIVE_NORM_NODES)
    return float(np.trapezoid(np.maximum(kernel.value(t), 0.0), t))


def _number(d: dict, key: str) -> float:
    return float(checked(d[key], key))


_KERNEL_TYPES = {
    "zero": lambda d: ZeroKernel(),
    "exponential": lambda d: ExponentialKernel(_number(d, "alpha"), _number(d, "beta")),
    "sum_of_exponentials": lambda d: SumOfExponentialsKernel(tuple(
        numbers(t, f"terms[{k}]")
        for k, t in enumerate(checked(d["terms"], "terms", list, "a list")))),
    "power_law": lambda d: PowerLawKernel(_number(d, "c"), _number(d, "gamma"),
                                          _number(d, "t0")),
    "tabulated": lambda d: TabulatedKernel(numbers(d["grid"], "grid"),
                                           numbers(d["values"], "values")),
}


def kernel_from_dict(d: dict) -> KernelSpec:
    # a tuple: a type that is not a string may not be hashable
    if not isinstance(d, dict) or d.get("type") not in tuple(_KERNEL_TYPES):
        raise ValueError(f"unknown kernel spec: {d!r}")
    try:
        return _KERNEL_TYPES[d["type"]](d)
    except KeyError as exc:
        raise ValueError(f"{d['type']} kernel spec lacks key {exc}: {d!r}") from exc
