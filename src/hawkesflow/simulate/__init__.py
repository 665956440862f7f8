"""Ground-truth Hawkes stream generation for estimator validation."""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".kernels": ("ExponentialKernel", "KernelSpec", "PowerLawKernel",
                 "SumOfExponentialsKernel", "TabulatedKernel", "ZeroKernel",
                 "kernel_from_dict"),
    ".model": ("HawkesModel", "ModelFlavor", "load_model", "mean_intensity",
               "save_model", "spectral_radius"),
    ".thinning": ("simulate",),
})
