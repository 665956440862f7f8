"""Wiener-Hopf kernel solver and derived norm/baseline quantities."""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    "..grids": ("QuadratureGrid", "build_quadrature"),
    ".solver": ("KernelEstimate", "NegativityReport", "exogeneity_ratios",
                "recover_baseline", "rescaled_norms", "save_kernel_estimate",
                "solve_wiener_hopf", "verify_negativity_propagation"),
})
