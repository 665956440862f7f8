"""Wiener-Hopf kernel solver and derived norm/baseline quantities."""

from ..grids import QuadratureGrid, build_quadrature
from .solver import (
    KernelEstimate,
    NegativityReport,
    exogeneity_ratios,
    recover_baseline,
    rescaled_norms,
    save_kernel_estimate,
    solve_wiener_hopf,
    verify_negativity_propagation,
)

__all__ = [
    "QuadratureGrid", "build_quadrature", "KernelEstimate",
    "NegativityReport", "exogeneity_ratios", "recover_baseline",
    "rescaled_norms", "save_kernel_estimate", "solve_wiener_hopf",
    "verify_negativity_propagation",
]
