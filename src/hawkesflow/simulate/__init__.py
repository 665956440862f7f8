"""Ground-truth Hawkes stream generation for estimator validation."""

from .kernels import (
    ExponentialKernel,
    KernelSpec,
    PowerLawKernel,
    SumOfExponentialsKernel,
    TabulatedKernel,
    ZeroKernel,
    kernel_from_dict,
)
from .model import (
    HawkesModel,
    ModelFlavor,
    load_model,
    mean_intensity,
    save_model,
    spectral_radius,
)
from .thinning import simulate

__all__ = [
    "ExponentialKernel", "KernelSpec", "PowerLawKernel",
    "SumOfExponentialsKernel", "TabulatedKernel", "ZeroKernel",
    "kernel_from_dict", "HawkesModel", "ModelFlavor", "load_model",
    "mean_intensity", "save_model", "spectral_radius", "simulate",
]
