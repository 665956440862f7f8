"""Conditional-law and mean-intensity estimation."""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    "..grids": ("LinLogGrid", "build_linlog_grid"),
    ".claw": ("ConditionalLawMatrix", "estimate_conditional_law",
              "estimate_mean_intensity", "load_claw", "save_claw"),
})
