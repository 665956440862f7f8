"""Lin-log binning and quadrature grids.

Both the conditional-law histogram and the kernel quadrature use the same
two-regime layout: uniformly spaced edges near zero (where the short-lag
structure lives) followed by log-spaced edges out to the maximum lag.  One
builder makes that layout, a ``LinLogGrid`` of bin edges; a
``QuadratureGrid`` is such a grid whose edges are the nodes, plus their
trapezoid weights for integration over ``[0, x_max]``.  A grid is fixed by
its four sizes; ``to_dict()`` records its two steps, derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinLogGrid",
    "QuadratureGrid",
    "build_linlog_grid",
    "build_quadrature",
    "CLAW_GRID_DEFAULTS",
    "QUADRATURE_DEFAULTS",
]

# Default conditional-law histogram: 50 linear bins up to 1 ms, 1500
# log bins up to 2e4 s.
CLAW_GRID_DEFAULTS = dict(h_min=1e-3, h_max=2e4, n_lin=50, n_log=1500)

# Default kernel quadrature: 80 linear bins up to 0.5 ms, 80 log bins
# up to 0.5 s.
QUADRATURE_DEFAULTS = dict(x_min=0.5e-3, x_max=0.5, n_lin=80, n_log=80)


@dataclass(frozen=True)
class LinLogGrid:
    """Histogram grid for lag binning: linear near 0, logarithmic beyond.

    ``edges[0] == 0``; bin ``b`` collects lags in ``(edges[b], edges[b+1]]``.
    """

    delta_lin: float
    h_min: float
    delta_log: float
    h_max: float
    n_lin: int
    n_log: int
    edges: np.ndarray = field(repr=False)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def bin_index(self, lags):
        """Bin index for each lag in ``(0, h_max]``; -1 when out of range."""
        lags = np.asarray(lags, dtype=float)
        # searchsorted with side='left' maps lag in (edges[b], edges[b+1]]
        # to b+1, hence the -1.
        idx = np.searchsorted(self.edges, lags, side="left") - 1
        out_of_range = (lags <= 0) | (lags > self.edges[-1])
        return np.where(out_of_range, -1, idx)

    def to_dict(self) -> dict:
        return {
            "delta_lin": self.delta_lin,
            "h_min": self.h_min,
            "delta_log": self.delta_log,
            "h_max": self.h_max,
            "n_lin": self.n_lin,
            "n_log": self.n_log,
        }


def build_linlog_grid(*, h_min: float = CLAW_GRID_DEFAULTS["h_min"],
                      h_max: float = CLAW_GRID_DEFAULTS["h_max"],
                      n_lin: int = CLAW_GRID_DEFAULTS["n_lin"],
                      n_log: int = CLAW_GRID_DEFAULTS["n_log"]) -> LinLogGrid:
    """Build a lag-histogram grid with edges ``[0, delta_lin, ..., h_min,
    h_min * exp(delta_log), ..., h_max]`` from its four sizes: the linear
    part spans ``[0, h_min]`` in ``n_lin`` bins, the log part
    ``[h_min, h_max]`` in ``n_log`` bins."""
    if not 0 < h_min < h_max:
        raise ValueError(f"need 0 < h_min < h_max, got {h_min}, {h_max}")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    if n_lin < 1 or n_log < 1:
        raise ValueError("bin counts must be at least 1")
    delta_lin = h_min / n_lin
    delta_log = math.log(h_max / h_min) / n_log
    lin = np.arange(n_lin + 1, dtype=float) * delta_lin
    lin[-1] = h_min
    log = h_min * np.exp(delta_log * np.arange(1, n_log + 1))
    log[-1] = h_max
    edges = np.concatenate([lin, log])
    # fails for an h_max / h_min so close to 1 that two edges round equal
    if np.any(np.diff(edges) <= 0):
        raise ValueError("grid edges are not strictly increasing")
    return LinLogGrid(delta_lin, h_min, delta_log, h_max, n_lin, n_log, edges)


@dataclass(frozen=True)
class QuadratureGrid:
    """Trapezoid rule for integration over ``[0, x_max]`` whose nodes are
    the edges of a lin-log grid, ``x_min`` its breakpoint.

    The weights are positive and sum to ``x_max`` exactly (up to rounding).
    """

    grid: LinLogGrid
    weights: np.ndarray = field(repr=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.edges

    @property
    def x_min(self) -> float:
        return self.grid.h_min

    @property
    def x_max(self) -> float:
        return self.grid.h_max

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def to_dict(self) -> dict:
        keys = ("eps_lin", "x_min", "eps_log", "x_max", "n_lin", "n_log")
        return dict(zip(keys, self.grid.to_dict().values()))


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    gaps = np.diff(nodes)
    w = np.zeros(len(nodes))
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def build_quadrature(*, x_min: float = QUADRATURE_DEFAULTS["x_min"],
                     x_max: float = QUADRATURE_DEFAULTS["x_max"],
                     n_lin: int = QUADRATURE_DEFAULTS["n_lin"],
                     n_log: int = QUADRATURE_DEFAULTS["n_log"]) -> QuadratureGrid:
    """Build a quadrature grid on the edges of the lin-log grid of these
    four sizes, ``x_min`` and ``x_max`` in the place of h_min and h_max."""
    # checked here too, so that the error names this function's arguments
    if not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got {x_min}, {x_max}")
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    grid = build_linlog_grid(h_min=x_min, h_max=x_max, n_lin=n_lin, n_log=n_log)
    return QuadratureGrid(grid, trapezoid_weights(grid.edges))
