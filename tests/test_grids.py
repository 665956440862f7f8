import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hawkesflow.grids import (QUADRATURE_DEFAULTS, build_linlog_grid, build_quadrature,
                              trapezoid_weights)
from oracles import build_linlog_grid_with_steps, searchsorted_bin_index
from test_pair_counts import GRIDS


class TestLinLogGrid:
    def test_default_grid_layout(self):
        # the default is the full-tail grid's first 872 bins, bit for bit,
        # cut at its first edge at or beyond 20 x the quadrature reach
        grid = build_linlog_grid()
        full = build_linlog_grid(h_max=2e4, n_log=1500)
        assert grid.n_bins == 872
        assert grid.edges.tobytes() == full.edges[:873].tobytes()
        assert grid.delta_log == full.delta_log
        assert grid.edges[-2] < 20 * QUADRATURE_DEFAULTS["x_max"] <= grid.edges[-1]
        assert grid.edges[0] == 0.0
        # linear part: 50 bins of width 2e-5 ending at 1 ms
        assert grid.edges[50] == pytest.approx(1e-3, rel=1e-12)
        assert np.allclose(np.diff(grid.edges[:51]), 2e-5)
        # log part: constant ratio
        ratios = grid.edges[52:] / grid.edges[51:-1]
        assert np.allclose(ratios, math.exp(grid.delta_log), rtol=1e-9)

    def test_small_explicit_grid(self):
        grid = build_linlog_grid(h_min=1.0, h_max=math.e ** 2, n_lin=2, n_log=2)
        assert (grid.delta_lin, grid.delta_log) == (0.5, 1.0)
        expected = [0.0, 0.5, 1.0, math.e, math.e ** 2]
        assert np.allclose(grid.edges, expected, rtol=1e-12)

    def test_edges_strictly_increasing(self):
        grid = build_linlog_grid(h_min=1e-3, h_max=100.0, n_lin=7, n_log=33)
        assert np.all(np.diff(grid.edges) > 0)

    def test_inconsistent_parameters_raise(self):
        with pytest.raises(ValueError):
            build_linlog_grid(h_min=10.0, h_max=10.0)
        with pytest.raises(ValueError):
            build_linlog_grid(h_min=20.0, h_max=10.0)

    @pytest.mark.parametrize("h_min,h_max", [(math.nan, 1.0), (1e-3, math.nan)])
    def test_nan_range_raises(self, h_min, h_max):
        with pytest.raises(ValueError, match="need 0 < h_min < h_max"):
            build_linlog_grid(h_min=h_min, h_max=h_max)

    def test_infinite_h_max_raises(self):
        with pytest.raises(ValueError, match="h_max must be finite, got inf"):
            build_linlog_grid(h_min=1e-3, h_max=math.inf)

    def test_sizes_are_keyword_only(self):
        # a call in the former order, a step first, must not bind the step
        # to h_min
        with pytest.raises(TypeError):
            build_linlog_grid(0.5, 1.0)
        with pytest.raises(TypeError):
            build_quadrature(6.25e-6, 5e-4)

    def test_bin_index_respects_left_open_convention(self):
        grid = build_linlog_grid(h_min=1.0, h_max=math.e ** 2, n_lin=2, n_log=2)
        # bins: (0, .5], (.5, 1], (1, e], (e, e^2]
        assert grid.bin_index(0.5) == 0
        assert grid.bin_index(0.500001) == 1
        assert grid.bin_index(1.0) == 1
        assert grid.bin_index(math.e ** 2) == 3
        assert grid.bin_index(0.0) == -1
        assert grid.bin_index(math.e ** 2 + 1e-9) == -1
        # searchsorted sorts NaN last, which once gave n_bins
        assert grid.bin_index(math.nan) == -1

    def test_roundtrip_through_dict(self):
        grid = build_linlog_grid(h_min=2e-3, h_max=40.0, n_lin=10, n_log=20)
        sizes = {k: grid.to_dict()[k] for k in ("h_min", "h_max", "n_lin", "n_log")}
        again = build_linlog_grid(**sizes)
        assert np.array_equal(grid.edges, again.edges)
        assert again.to_dict() == grid.to_dict()


# the program's grids: the default law grid, the full-tail law grid, the
# benchmark's book12 grid, the acceptance suite's grids and the default
# quadrature
PROGRAM_GRIDS = [(1e-3, 10.022231672756412, 50, 822), (1e-3, 2e4, 50, 1500),
                 (1e-3, 5.0, 50, 300),
                 (1e-3, 10.0, 50, 300), (1e-3, 5.0, 50, 250),
                 (0.5e-3, 0.5, 80, 80)]


def with_program_grids(test):
    for h_min, h_max, n_lin, n_log in PROGRAM_GRIDS:
        test = example(h_min=h_min, h_max=h_max, n_lin=n_lin, n_log=n_log)(test)
    return test


def assert_as_former_builder(h_min, h_max, n_lin, n_log):
    sizes = dict(h_min=h_min, h_max=h_max, n_lin=n_lin, n_log=n_log)
    try:
        expected = build_linlog_grid_with_steps(**sizes)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            build_linlog_grid(**sizes)
        return
    grid = build_linlog_grid(**sizes)
    assert grid.edges.tobytes() == expected.edges.tobytes()
    assert list(grid.to_dict().items()) == list(expected.to_dict().items())


class TestFormerBuilder:
    """The grid of the four sizes is, bit for bit, the one the former
    builder made when it derived its steps, and it raises where that one
    raised."""

    @with_program_grids
    @given(h_min=st.floats(1e-9, 1e3),
           h_max=st.floats(1e-9, 1e3) | st.floats(1e-9, 40.0).map(math.exp),
           n_lin=st.integers(1, 500), n_log=st.integers(1, 3000))
    def test_edges_and_dict_bit_identical(self, h_min, h_max, n_lin, n_log):
        assert_as_former_builder(h_min, h_max, n_lin, n_log)

    # ratios so close to 1 that edges round equal
    @given(h_min=st.floats(1e-9, 1e3), ratio=st.floats(1.0, 1.0 + 1e-9),
           n_log=st.integers(1, 3000))
    def test_ratio_near_one(self, h_min, ratio, n_log):
        assert_as_former_builder(h_min, h_min * ratio, 50, n_log)


def lags_around_edges(grid) -> np.ndarray:
    """Every edge, each edge one ulp either side, zero, past ``h_max``,
    negative lags and NaN."""
    edges = grid.edges
    return np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, edges[-1] * 2, np.inf, -edges[1], -edges[-1], -np.inf, np.nan]])


class TestBinIndex:
    """The grid's formula-based bin lookup equals the former searchsorted
    one on every grid the program builds and every pair-count test grid, at
    and around every edge."""

    ALL_GRIDS = {**{str(sizes): build_linlog_grid(
        **dict(zip(("h_min", "h_max", "n_lin", "n_log"), sizes))) for sizes in PROGRAM_GRIDS},
        **GRIDS}

    @pytest.mark.parametrize("name", sorted(ALL_GRIDS))
    def test_equals_searchsorted_lookup(self, name):
        grid = self.ALL_GRIDS[name]
        lags = lags_around_edges(grid)
        assert np.array_equal(grid.bin_index(lags), searchsorted_bin_index(grid, lags))

    def test_shape_follows_lags(self):
        grid = build_linlog_grid(h_min=1.0, h_max=math.e ** 2, n_lin=2, n_log=2)
        assert grid.bin_index(0.75).shape == ()
        assert grid.bin_index(np.full((2, 3), 0.75)).tolist() == [[1] * 3] * 2
        assert grid.bin_index([]).shape == (0,)


class TestQuadrature:
    def test_default_has_161_nodes_on_half_second(self):
        quad = build_quadrature()
        assert quad.n_nodes == 161
        assert quad.nodes[0] == 0.0
        assert quad.nodes[-1] == pytest.approx(0.5, rel=1e-12)
        assert quad.nodes[80] == pytest.approx(0.5e-3, rel=1e-12)

    def test_uniform_three_node_trapezoid(self):
        w = trapezoid_weights(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(w, [0.25, 0.5, 0.25])

    def test_weights_positive_and_sum_to_x_max(self):
        for kwargs in ({}, dict(x_min=1e-3, x_max=2.0, n_lin=13, n_log=57)):
            quad = build_quadrature(**kwargs)
            assert np.all(quad.weights > 0)
            assert quad.weights.sum() == pytest.approx(quad.x_max, rel=1e-12)

    def test_manifest_dict_pinned(self):
        # kernel_manifest.json writes this dict, and the oracle writer calls
        # the same to_dict, so only a literal catches a change of key,
        # order or value
        assert list(build_quadrature().to_dict().items()) == [
            ("eps_lin", 6.25e-06), ("x_min", 0.0005),
            ("eps_log", 0.08634694098727672), ("x_max", 0.5),
            ("n_lin", 80), ("n_log", 80)]

    def test_nodes_are_the_linlog_grid_edges(self):
        kwargs = dict(x_min=1e-3, x_max=2.0, n_lin=13, n_log=57)
        quad = build_quadrature(**kwargs)
        grid = build_linlog_grid(h_min=1e-3, h_max=2.0, n_lin=13, n_log=57)
        assert np.array_equal(quad.nodes, grid.edges)
        assert np.array_equal(quad.weights, trapezoid_weights(grid.edges))
        assert (quad.x_min, quad.x_max, quad.n_nodes) == (1e-3, 2.0, 71)

    @pytest.mark.parametrize("x_min,x_max", [(0.6, 0.5), (0.0, 0.5), (1e-3, 1e-3)])
    def test_bad_range_error_names_x_min_and_x_max(self, x_min, x_max):
        with pytest.raises(ValueError, match="need 0 < x_min < x_max"):
            build_quadrature(x_min=x_min, x_max=x_max)

    def test_infinite_x_max_error_names_x_max(self):
        with pytest.raises(ValueError, match="x_max must be finite, got inf"):
            build_quadrature(x_min=1e-3, x_max=math.inf)

    def test_quadrature_integrates_smooth_function(self):
        quad = build_quadrature()
        exact = 1 - math.exp(-0.5)
        approx = float(quad.weights @ np.exp(-quad.nodes))
        assert approx == pytest.approx(exact, rel=1e-4)


def bins_per_decade(grid, first: int, last: int) -> list[tuple]:
    """``(lo, hi, bins)`` of each decade from ``10**first`` to ``10**last``
    s: the bins that lie wholly inside it."""
    out = []
    for k in range(first, last):
        lo, hi = 10.0 ** k, 10.0 ** (k + 1)
        out.append((lo, hi, int(np.sum((grid.edges[:-1] >= lo) & (grid.edges[1:] <= hi)))))
    return out


class TestMassLocation:
    # the laws' mass spans many orders of magnitude in lag; a law grid must
    # spend bins across all of them

    def test_default_grid_resolves_every_decade(self):
        # from 1 ms to its reach of ~10 s
        grid = build_linlog_grid()
        for lo, hi, n in bins_per_decade(grid, -3, 1):
            assert n >= 100, (lo, hi, n)
        # and the sub-millisecond regime is linearly resolved
        assert np.sum(grid.edges < 1e-3) == 50

    def test_full_tail_grid_resolves_every_decade(self):
        grid = build_linlog_grid(h_max=2e4, n_log=1500)
        for lo, hi, n in bins_per_decade(grid, -3, 4):
            assert n >= 100, (lo, hi, n)
        assert np.sum(grid.edges < 1e-3) == 50
