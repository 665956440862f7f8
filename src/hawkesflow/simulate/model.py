"""Hawkes model specification, stability and stationary intensities."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import StabilityError
from .kernels import (
    KernelSpec,
    PowerLawKernel,
    SumOfExponentialsKernel,
    TabulatedKernel,
    ZeroKernel,
    kernel_from_dict,
)

__all__ = [
    "ModelFlavor",
    "HawkesModel",
    "spectral_radius",
    "mean_intensity",
    "load_model",
    "save_model",
]


class ModelFlavor(str, Enum):
    LINEAR = "linear"
    POSITIVE_PART = "positive_part"
    FACTORIZED = "factorized"


def spectral_radius(norm_matrix) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = np.asarray(norm_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("norm matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("norm matrix must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(a)), initial=0.0))


@dataclass(frozen=True)
class HawkesModel:
    """Baseline vector plus a D x D matrix of kernel specs.

    For the factorized flavor the kernels matrix is derived: component
    ``i`` receives ``mark_probs[i] * mark_values[j] * base_kernel`` from
    component ``j``, and ``baseline[i] = mark_probs[i] * baseline_total``.
    """

    dimension: int
    baseline: np.ndarray
    kernels: tuple[tuple[KernelSpec, ...], ...]
    flavor: ModelFlavor = ModelFlavor.LINEAR
    base_kernel: KernelSpec | None = None
    mark_values: np.ndarray | None = None
    mark_probs: np.ndarray | None = None
    baseline_total: float | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        d = self.dimension
        if self.baseline.shape != (d,):
            raise ValueError("baseline must have one rate per component")
        if not np.all(np.isfinite(self.baseline)):
            raise ValueError(f"baseline rates must be finite, got {self.baseline}")
        if np.any(self.baseline < 0):
            raise ValueError("baseline rates must be nonnegative")
        if len(self.kernels) != d or any(len(row) != d for row in self.kernels):
            raise ValueError("kernel matrix must be D x D")
        if self.flavor is ModelFlavor.LINEAR:
            bad = [(i, j) for i, row in enumerate(self.kernels)
                   for j, k in enumerate(row) if not k.nonnegative()]
            if bad:
                raise ValueError(
                    f"kernels {bad} take negative values; linear models "
                    f"require nonnegative kernels (use positive_part)")
        if self.flavor is ModelFlavor.FACTORIZED:
            if self.base_kernel is None or self.mark_values is None \
                    or self.mark_probs is None or self.baseline_total is None:
                raise ValueError("factorized model needs base kernel, mark "
                                 "values, mark probabilities and total baseline")
            if abs(float(np.sum(self.mark_probs)) - 1.0) > 1e-9:
                raise ValueError("mark probabilities must sum to 1")
            if np.any(self.mark_values < 0):
                raise ValueError("mark function must be nonnegative")

    @classmethod
    def linear(cls, baseline, kernels, flavor=ModelFlavor.LINEAR,
               meta: dict | None = None) -> "HawkesModel":
        baseline = np.asarray(baseline, dtype=float)
        rows = tuple(tuple(row) for row in kernels)
        return cls(len(baseline), baseline, rows, ModelFlavor(flavor),
                   meta=meta or {})

    @classmethod
    def factorized(cls, baseline_total: float, base_kernel: KernelSpec,
                   mark_values, mark_probs, meta: dict | None = None) -> "HawkesModel":
        f = np.asarray(mark_values, dtype=float)
        p = np.asarray(mark_probs, dtype=float)
        d = len(p)
        if len(f) != d:
            raise ValueError("mark values and probabilities must align")
        rows = tuple(
            tuple(_scaled_kernel(base_kernel, p[i] * f[j]) for j in range(d))
            for i in range(d)
        )
        return cls(d, p * baseline_total, rows, ModelFlavor.FACTORIZED,
                   base_kernel=base_kernel, mark_values=f, mark_probs=p,
                   baseline_total=float(baseline_total), meta=meta or {})

    def norm_matrix(self) -> np.ndarray:
        return np.array([[k.norm() for k in row] for row in self.kernels])

    def positive_norm_matrix(self) -> np.ndarray:
        return np.array([[k.positive_norm() for k in row] for row in self.kernels])

    def branching_radius(self) -> float:
        """Spectral radius of the matrix bounding the excitation: plain
        norms for linear models, positive-part norms otherwise."""
        if self.flavor is ModelFlavor.LINEAR:
            return spectral_radius(self.norm_matrix())
        return spectral_radius(self.positive_norm_matrix())

    def is_stable(self) -> bool:
        return self.branching_radius() < 1.0

    def to_dict(self) -> dict:
        if self.flavor is ModelFlavor.FACTORIZED:
            return {
                "dimension": self.dimension,
                "flavor": self.flavor.value,
                "baseline_total": self.baseline_total,
                "base_kernel": self.base_kernel.to_dict(),
                "mark_values": [float(v) for v in self.mark_values],
                "mark_probs": [float(v) for v in self.mark_probs],
            }
        return {
            "dimension": self.dimension,
            "flavor": self.flavor.value,
            "baseline": [float(v) for v in self.baseline],
            "kernels": [[k.to_dict() for k in row] for row in self.kernels],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HawkesModel":
        flavor = ModelFlavor(d.get("flavor", "linear"))
        try:
            if flavor is ModelFlavor.FACTORIZED:
                return cls.factorized(
                    float(d["baseline_total"]),
                    kernel_from_dict(d["base_kernel"]),
                    d["mark_values"], d["mark_probs"])
            kernels = [[kernel_from_dict(k) for k in row] for row in d["kernels"]]
            return cls.linear(d["baseline"], kernels, flavor)
        except KeyError as exc:
            raise ValueError(f"{flavor.value} model spec lacks key {exc}") from exc

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _scaled_kernel(kernel: KernelSpec, factor: float) -> KernelSpec:
    """Kernel scaled by a nonnegative factor; exact for exponential sums."""
    if factor == 0.0:
        return ZeroKernel()
    if isinstance(kernel, SumOfExponentialsKernel):
        return SumOfExponentialsKernel(
            tuple((a * factor, b) for a, b in kernel.terms))
    if isinstance(kernel, PowerLawKernel):
        return PowerLawKernel(kernel.c * factor, kernel.gamma, kernel.t0)
    if isinstance(kernel, TabulatedKernel):
        return TabulatedKernel(kernel.grid,
                               tuple(v * factor for v in kernel.values))
    raise TypeError(f"cannot scale kernel of type {type(kernel).__name__}")


def mean_intensity(model: HawkesModel) -> np.ndarray:
    """Stationary mean rates: solves ``(I - N) Lambda = mu`` with N the
    kernel norm matrix."""
    norms = model.norm_matrix()
    radius = spectral_radius(np.abs(norms))
    if radius >= 1.0:
        raise StabilityError(
            f"kernel norm matrix has spectral radius {radius:.4f} >= 1")
    lam = np.linalg.solve(np.eye(model.dimension) - norms, model.baseline)
    return lam


def load_model(path) -> HawkesModel:
    with open(path, "r", encoding="utf-8") as fh:
        return HawkesModel.from_dict(json.load(fh))


def save_model(model: HawkesModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")
