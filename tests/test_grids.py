import math

import numpy as np
import pytest

from hawkesflow.grids import build_linlog_grid, build_quadrature, trapezoid_weights


class TestLinLogGrid:
    def test_default_grid_layout(self):
        grid = build_linlog_grid()
        assert grid.n_bins == 1550
        assert grid.edges[0] == 0.0
        assert grid.edges[-1] == pytest.approx(2e4, rel=1e-9)
        # linear part: 50 bins of width 2e-5 ending at 1 ms
        assert grid.edges[50] == pytest.approx(1e-3, rel=1e-12)
        assert np.allclose(np.diff(grid.edges[:51]), 2e-5)
        # log part: constant ratio
        ratios = grid.edges[52:] / grid.edges[51:-1]
        assert np.allclose(ratios, math.exp(grid.delta_log), rtol=1e-9)

    def test_small_explicit_grid(self):
        grid = build_linlog_grid(delta_lin=0.5, h_min=1.0, delta_log=1.0,
                                 h_max=math.e ** 2, n_lin=2, n_log=2)
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
        with pytest.raises(ValueError):
            build_linlog_grid(delta_lin=1.0, h_min=1.0, n_lin=5, h_max=10.0)
        with pytest.raises(ValueError):
            build_linlog_grid(delta_lin=-0.1, h_min=1.0, h_max=10.0)

    def test_bin_index_respects_left_open_convention(self):
        grid = build_linlog_grid(h_min=1.0, h_max=math.e ** 2, n_lin=2, n_log=2)
        # bins: (0, .5], (.5, 1], (1, e], (e, e^2]
        assert grid.bin_index(0.5) == 0
        assert grid.bin_index(0.500001) == 1
        assert grid.bin_index(1.0) == 1
        assert grid.bin_index(math.e ** 2) == 3
        assert grid.bin_index(0.0) == -1
        assert grid.bin_index(math.e ** 2 + 1e-9) == -1

    def test_roundtrip_through_dict(self):
        grid = build_linlog_grid(h_min=2e-3, h_max=40.0, n_lin=10, n_log=20)
        again = build_linlog_grid(**grid.to_dict())
        assert np.array_equal(grid.edges, again.edges)


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

    def test_quadrature_integrates_smooth_function(self):
        quad = build_quadrature()
        exact = 1 - math.exp(-0.5)
        approx = float(quad.weights @ np.exp(-quad.nodes))
        assert approx == pytest.approx(exact, rel=1e-4)


class TestMassLocation:
    def test_default_grid_resolves_every_decade(self):
        # the laws' mass spans many orders of magnitude in lag; the default
        # grid must spend bins across all of them
        grid = build_linlog_grid()
        decades = [(10.0 ** k, 10.0 ** (k + 1)) for k in range(-3, 4)]
        for lo, hi in decades:
            n = int(np.sum((grid.edges[:-1] >= lo) & (grid.edges[1:] <= hi)))
            assert n >= 100, (lo, hi, n)
        # and the sub-millisecond regime is linearly resolved
        assert np.sum(grid.edges < 1e-3) == 50
