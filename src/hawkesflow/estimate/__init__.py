"""Conditional-law and mean-intensity estimation."""

from ..grids import LinLogGrid, build_linlog_grid
from .claw import (
    ConditionalLawMatrix,
    estimate_conditional_law,
    estimate_mean_intensity,
    load_claw,
    save_claw,
)

__all__ = [
    "LinLogGrid", "build_linlog_grid", "ConditionalLawMatrix",
    "estimate_conditional_law", "estimate_mean_intensity", "load_claw",
    "save_claw",
]
