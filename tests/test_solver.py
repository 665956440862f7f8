import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkesflow.errors import SolverError
from hawkesflow.estimate import (
    ConditionalLawMatrix,
    build_linlog_grid,
    estimate_conditional_law,
)
from hawkesflow.events import MultivariateEventStream, Session
from hawkesflow.simulate import ExponentialKernel, HawkesModel, ZeroKernel, simulate
from hawkesflow.whsolve import (
    build_quadrature,
    exogeneity_ratios,
    recover_baseline,
    rescaled_norms,
    save_kernel_estimate,
    solve_wiener_hopf,
    verify_negativity_propagation,
)
from hawkesflow import whsolve as solver
from hawkesflow.whsolve import (
    _BLOCK_LEAF,
    _at_nodes,
    _block_inverse,
    _row_block_columns,
    _row_blocks,
    _symmetrizing_scale,
)
from oracles import (
    assemble_system,
    claw_matrix_from_samples,
    fixed_point_claw,
    gathered_variance,
    lu_reference_solve,
    stderr_at_lag,
    value_at_lag,
)


def exp_kernel_fn(norm, beta):
    return lambda t: norm * beta * np.exp(-beta * np.maximum(t, 0.0)) * (t >= 0)


def zero_fn(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def random_law(seed, lam, h_max=1.0):
    """Law with random signed values and random standard errors."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(lam, dtype=float)
    d = len(lam)
    grid = build_linlog_grid(h_min=1e-2, h_max=h_max, n_lin=10, n_log=60)
    b = grid.n_bins
    return ConditionalLawMatrix(
        grid, rng.normal(0.0, 0.3, (d, d, b)), rng.uniform(0.0, 0.1, (d, d, b)),
        np.zeros((d, d, b), dtype=np.int64), np.ones((d, b), dtype=np.int64),
        lam, total_time=1.0)


def zero_event_free(claw):
    """Copy of ``claw`` whose event-free components have zero law values and
    standard errors in their rows and columns, as ``estimate_conditional_law``
    leaves them."""
    empty = claw.lam == 0
    values, stderr = claw.values.copy(), claw.stderr.copy()
    for table in (values, stderr):
        table[empty] = 0.0
        table[:, empty] = 0.0
    return dataclasses.replace(claw, values=values, stderr=stderr)


def stacked_system(claw, quad):
    """A stacked from the solver's row blocks, each written into the one
    block buffer that every source overwrites in turn, and b."""
    columns = _row_block_columns(claw, quad)
    block = np.empty((quad.n_nodes, claw.dimension * quad.n_nodes))
    a = np.concatenate([rows.copy() for _, rows in
                        _row_blocks(claw, quad, columns, block)])
    return a, _at_nodes(claw, quad.nodes)


def solve_peak(claw, quad) -> float:
    """tracemalloc peak of one solve, in n^2 doubles for n unknowns."""
    n = claw.dimension * quad.n_nodes
    tracemalloc.start()
    try:
        solve_wiener_hopf(claw, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def assert_rel_close(actual, expected, rel=1e-12):
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


# Rates of the 12-component random law: the size of a full order book with
# two volume bins, 1932 unknowns on the default quadrature.
LAM_12D = np.linspace(0.4, 2.6, 12)


@pytest.fixture(scope="module")
def random_3d():
    return random_law(3, [0.9, 1.6, 2.2])


@pytest.fixture(scope="module")
def random_12d():
    return random_law(12, LAM_12D)


@pytest.fixture(scope="module")
def event_free_3d():
    return zero_event_free(random_law(3, [1.3, 0.0, 0.7]))


def spy_on_inverse(monkeypatch) -> list[int]:
    """Record the size of every matrix ``np.linalg.inv`` inverts."""
    sizes = []
    inv = np.linalg.inv

    def spy(a):
        sizes.append(len(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return sizes


@pytest.fixture(scope="module")
def oracle_1d():
    phi = exp_kernel_fn(0.5, 10.0)
    t, g = fixed_point_claw([[phi]], [2.0], t_max=6.0, dt=1e-4)
    grid = build_linlog_grid(h_min=1e-3, h_max=6.0, n_lin=50, n_log=300)
    return claw_matrix_from_samples(grid, t, g, [2.0])


class TestSolve:
    def test_zero_law_gives_zero_kernels(self):
        grid = build_linlog_grid(h_min=1e-3, h_max=1.0, n_lin=10, n_log=50)
        claw = ConditionalLawMatrix.from_function(
            grid, [[zero_fn, zero_fn], [zero_fn, zero_fn]], [1.0, 1.0])
        est = solve_wiener_hopf(claw, build_quadrature())
        assert np.all(est.values == 0.0)
        assert np.all(est.norms == 0.0)
        assert est.residual == 0.0
        assert np.allclose(est.baseline, [1.0, 1.0])

    def test_1d_oracle_round_trip(self, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        assert est.norms[0, 0] == pytest.approx(0.5, rel=0.02)
        true_vals = exp_kernel_fn(0.5, 10.0)(est.quad.nodes)
        sup_err = float(np.max(np.abs(est.values[0, 0] - true_vals)))
        assert sup_err < 0.05 * 5.0  # within 5% of the kernel's peak
        assert est.residual <= 1e-8

    def test_2d_directed_oracle_keeps_silent_kernel_silent(self):
        # only the 2 -> 1 kernel is active; the 1 -> 2 entry must stay
        # within the solver-noise band
        phi = [[zero_fn, exp_kernel_fn(0.4, 10.0)], [zero_fn, zero_fn]]
        lam2 = 1.0
        lam1 = 1.0 + 0.4 * lam2
        t, g = fixed_point_claw(phi, [lam1, lam2], t_max=6.0, dt=2e-4)
        grid = build_linlog_grid(h_min=1e-3, h_max=6.0, n_lin=50, n_log=300)
        claw = claw_matrix_from_samples(grid, t, g, [lam1, lam2])
        est = solve_wiener_hopf(claw, build_quadrature())
        assert abs(est.norms[1, 0]) < 0.02
        assert abs(est.norms[1, 1]) < 0.02
        assert abs(est.norms[0, 0]) < 0.02
        assert est.norms[0, 1] == pytest.approx(0.4 * (1 - np.exp(-5.0)),
                                                rel=0.02)

    def test_residual_collected_and_small(self, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        assert 0.0 <= est.residual <= 1e-10

    def test_quadrature_must_fit_inside_law_range(self, oracle_1d):
        quad = build_quadrature(x_max=10.0, x_min=1e-2)
        with pytest.raises(ValueError):
            solve_wiener_hopf(oracle_1d, quad)

    def test_singular_system_aborts_with_diagnostics(self):
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=20)
        # constant law g = -1/x_max makes I + w g^T exactly singular
        claw = ConditionalLawMatrix.from_function(
            grid, [[lambda t: np.full_like(t, -2.0)]], [1.0])
        with pytest.raises(SolverError) as err:
            solve_wiener_hopf(claw, build_quadrature())
        assert "condition" in str(err.value)

    def test_exactly_singular_matrix_reports_infinite_condition(
            self, oracle_1d, monkeypatch):
        # every row block reads zero, for the block pass and the fallback
        row_blocks = solver._row_blocks

        def zero_rows(*args):
            for j, rows in row_blocks(*args):
                rows[...] = 0.0
                yield j, rows

        monkeypatch.setattr(solver, "_row_blocks", zero_rows)
        with pytest.raises(SolverError) as err:
            solve_wiener_hopf(oracle_1d, build_quadrature())
        assert err.value.diagnostics["condition_estimate"] == np.inf

    def test_singular_leading_block_falls_back_to_pivoted_inverse(self):
        # the first component's block of A is singular to working precision
        # (condition ~1e19) while A is not: block elimination alone fails
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=20)
        const = lambda c: (lambda t: np.full_like(t, c))
        claw = ConditionalLawMatrix.from_function(
            grid, [[const(-2.0), const(0.7)], [const(0.5), const(0.3)]],
            [1.0, 1.0])
        quad = build_quadrature()
        assert 2 * quad.n_nodes > _BLOCK_LEAF
        est = solve_wiener_hopf(claw, quad)
        ref = lu_reference_solve(claw, quad)
        assert_rel_close(est.values, ref["values"])
        assert_rel_close(est.norms, ref["norms"])
        assert_rel_close(est.stderr, ref["stderr"])
        a, _ = assemble_system(claw, quad)
        assert est.condition_estimate == pytest.approx(np.linalg.cond(a, 1),
                                                       rel=1e-12)

    def test_book_sized_law_needs_no_fallback(self, random_12d, monkeypatch):
        sizes = spy_on_inverse(monkeypatch)
        est = solve_wiener_hopf(random_12d, build_quadrature())
        assert len(est.values) * est.quad.n_nodes == 1932
        assert sizes and max(sizes) <= _BLOCK_LEAF

    def test_book_sized_solve_peak_memory(self, random_12d):
        # the one n x n buffer, a quarter-size product and the (Q, D, Q)
        # lookup index: about 1.35 n^2 doubles, A is never held whole
        assert solve_peak(random_12d, build_quadrature()) <= 1.5

    def test_two_component_solve_peak_memory(self):
        # at D = 2 the lookup index and the row-block scratch are n^2 / 2
        # each; together they must not outweigh the whole A they stand in
        # for: holding A beside its inverse peaked at 3.01 n^2 here
        assert solve_peak(random_law(2, [1.0, 2.5]), build_quadrature()) <= 3.01

    def test_law_without_symmetric_form_falls_back(self, event_free_3d,
                                                   monkeypatch):
        # every law the solver reads has the symmetric form, so the block
        # pass is made to fail its residual check instead
        monkeypatch.setattr("hawkesflow.whsolve._BLOCK_RESIDUAL_LIMIT",
                            -1.0)
        claw = event_free_3d
        quad = build_quadrature()
        sizes = spy_on_inverse(monkeypatch)
        est = solve_wiener_hopf(claw, quad)
        assert sizes[-1] == 3 * quad.n_nodes
        ref = lu_reference_solve(claw, quad)
        assert_rel_close(est.values, ref["values"])
        assert_rel_close(est.stderr, ref["stderr"])

    def test_law_conditioned_on_event_free_component_needs_no_fallback(
            self, event_free_3d, monkeypatch):
        # table values and standard errors where the source or the target
        # has no events are not read, so the system keeps its symmetric form
        quad = build_quadrature()
        ref = solve_wiener_hopf(event_free_3d, quad)
        for laws in ((slice(None), 1), 1):
            values = event_free_3d.values.copy()
            stderr = event_free_3d.stderr.copy()
            values[laws] = 0.3
            stderr[laws] = 0.05
            claw = dataclasses.replace(event_free_3d, values=values,
                                       stderr=stderr)
            sizes = spy_on_inverse(monkeypatch)
            est = solve_wiener_hopf(claw, quad)
            assert sizes and max(sizes) <= _BLOCK_LEAF
            assert np.array_equal(est.values, ref.values)
            assert np.array_equal(est.stderr, ref.stderr)

    def test_stderr_propagation_shapes_and_positivity(self, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        assert est.stderr is not None
        assert est.stderr.shape == est.values.shape
        assert np.all(est.stderr >= 0.0)
        no_std = solve_wiener_hopf(oracle_1d, build_quadrature(),
                                   compute_stderr=False)
        assert no_std.stderr is None
        assert np.array_equal(no_std.values, est.values)


POSITIVE_RATE_LAWS = [
    pytest.param([1.5], 1.0, id="d1"),
    pytest.param([1.0, 2.5], 1.0, id="d2"),
    pytest.param([0.8, 1.9, 3.1, 0.4], 1.0, id="d4"),
    pytest.param([1.0, 2.5], 0.5, id="x_max-at-h_max"),
]


class TestAssembly:
    @pytest.mark.parametrize("lam,h_max", POSITIVE_RATE_LAWS + [
        pytest.param([1.3, 0.0, 0.7], 1.0, id="event-free"),
    ])
    def test_bit_identical_to_blockwise_assembly(self, lam, h_max):
        claw = random_law(len(lam), lam, h_max)
        quad = build_quadrature()
        assert quad.nodes[0] == 0.0
        assert quad.x_max <= claw.grid.h_max
        a_ref, b_ref = assemble_system(claw, quad)
        a, b = stacked_system(claw, quad)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(b, b_ref)
        whole = np.empty_like(a)
        for _ in _row_blocks(claw, quad, _row_block_columns(claw, quad), whole):
            pass
        assert np.array_equal(whole, a_ref)

    @pytest.mark.parametrize("lam,h_max", POSITIVE_RATE_LAWS + [
        pytest.param([1.3, 0.0, 0.7], 1.0, id="event-free"),
    ])
    def test_variance_bit_identical_to_former_gather(self, lam, h_max):
        claw = random_law(len(lam), lam, h_max)
        quad = build_quadrature()
        var_b = _at_nodes(claw, quad.nodes, stderr=True) ** 2
        assert var_b.tobytes() == gathered_variance(claw, quad).tobytes()
        for i in range(claw.dimension):
            column = np.concatenate([stderr_at_lag(claw, i, j, quad.nodes) ** 2
                                     for j in range(claw.dimension)])
            assert var_b[:, i].tobytes() == column.tobytes()

    @pytest.mark.parametrize("lam,h_max", POSITIVE_RATE_LAWS + [
        pytest.param([1.3, 0.0, 0.7], 1.0, id="event-free"),
    ])
    def test_rate_and_weight_scaling_symmetrizes_system(self, lam, h_max):
        # time reversal: lam_j w_q A[(j,q),(k,m)] = lam_k w_m A[(k,m),(j,q)],
        # the structure that block elimination of A relies on; an event-free
        # component's rows and columns are the identity and take rate 1
        claw = zero_event_free(random_law(len(lam), lam, h_max))
        quad = build_quadrature()
        a, _ = stacked_system(claw, quad)
        s = _symmetrizing_scale(claw.lam, quad)
        sym = s[:, None] * a / s[None, :]
        assert np.max(np.abs(sym - sym.T)) <= 1e-14 * np.max(np.abs(sym))


class TestLUReference:
    @pytest.mark.parametrize("law", ["oracle_1d", "random_3d", "random_12d",
                                     "event_free_3d"])
    def test_matches_lu_path(self, law, request):
        claw = request.getfixturevalue(law)
        quad = build_quadrature()
        est = solve_wiener_hopf(claw, quad)
        ref = lu_reference_solve(claw, quad)
        assert_rel_close(est.values, ref["values"])
        assert_rel_close(est.norms, ref["norms"])
        assert_rel_close(est.stderr, ref["stderr"])
        a, _ = assemble_system(claw, quad)
        assert est.condition_estimate == pytest.approx(np.linalg.cond(a, 1),
                                                       rel=1e-12)

    @given(n=st.integers(1, 700), leaf=st.sampled_from([1, 7, 64]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_inverse_matches_lapack(self, n, leaf, seed):
        # I + (E + E^T)/2 with ||E||_2 about 1/2: symmetric, and every
        # leading block and Schur complement is well conditioned too
        rng = np.random.default_rng(seed)
        e = 0.25 * rng.standard_normal((n, n)) / np.sqrt(n)
        a = np.eye(n) + (e + e.T) / 2
        expected = np.linalg.inv(a)
        assert _block_inverse(a, leaf) is a
        assert_rel_close(a, expected)


class TestComponentPermutation:
    @pytest.fixture(scope="class")
    def base(self):
        model = HawkesModel.linear(
            [0.8, 0.5, 1.1],
            [[ExponentialKernel(0.3, 10.0), ZeroKernel(), ExponentialKernel(0.2, 5.0)],
             [ExponentialKernel(0.25, 8.0), ExponentialKernel(0.2, 12.0), ZeroKernel()],
             [ZeroKernel(), ExponentialKernel(0.3, 6.0), ExponentialKernel(0.1, 9.0)]])
        stream = simulate(model, 2e3, seed=41)
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=60)
        claw = estimate_conditional_law(stream, grid)
        quad = build_quadrature()
        return stream, claw, stacked_system(claw, quad), solve_wiener_hopf(claw, quad)

    @pytest.mark.parametrize("perm", [(2, 0, 1), (1, 0, 2), (0, 2, 1)])
    def test_permuting_components_permutes_law_system_and_kernels(self, base, perm):
        stream, claw, (a, b), est = base
        perm = np.array(perm)
        sess = stream.sessions[0]
        permuted = MultivariateEventStream(3, (Session(
            sess.session_id, sess.duration, tuple(sess.times[p] for p in perm)),))
        claw_p = estimate_conditional_law(permuted, claw.grid)
        assert np.array_equal(claw_p.pair_counts, claw.pair_counts[np.ix_(perm, perm)])
        assert np.array_equal(claw_p.admissible, claw.admissible[perm])
        quad = est.quad
        a_p, b_p = stacked_system(claw_p, quad)
        rows = (perm[:, None] * quad.n_nodes + np.arange(quad.n_nodes)).ravel()
        assert np.array_equal(a_p, a[np.ix_(rows, rows)])
        assert np.array_equal(b_p, b[rows][:, perm])
        est_p = solve_wiener_hopf(claw_p, quad)
        assert_rel_close(est_p.values, est.values[np.ix_(perm, perm)], rel=1e-10)
        assert_rel_close(est_p.stderr, est.stderr[np.ix_(perm, perm)], rel=1e-10)


class TestDerivedQuantities:
    def test_norms_of_zero_kernel(self):
        quad = build_quadrature()
        values = np.zeros((2, 2, quad.n_nodes))
        assert np.all(values @ quad.weights == 0.0)

    def test_constant_kernel_rectangle_rule(self):
        quad = build_quadrature()
        values = np.full((1, 1, quad.n_nodes), 3.0)
        assert (values @ quad.weights)[0, 0] == pytest.approx(
            3.0 * quad.x_max, rel=1e-12)

    def test_exponential_tabulation_closed_form(self):
        quad = build_quadrature()
        values = (0.5 * 10.0 * np.exp(-10.0 * quad.nodes))[None, None, :]
        expected = 0.5 * (1 - np.exp(-10.0 * quad.x_max))
        assert (values @ quad.weights)[0, 0] == pytest.approx(
            expected, abs=1e-3)

    def test_rescaled_norms_trivial_and_scaling(self):
        norms = np.array([[0.3, 0.1], [0.2, 0.4]])
        assert np.allclose(rescaled_norms(norms, [1.0, 1.0]), norms)
        resc = rescaled_norms(norms, [1.0, 2.0])
        assert resc[0, 1] == pytest.approx(0.2)   # (lam_2/lam_1) * 0.1
        assert resc[1, 0] == pytest.approx(0.1)   # (lam_1/lam_2) * 0.2
        # an event-free component's row is undefined, the other row is not
        resc = rescaled_norms(norms, [1.0, 0.0])
        assert np.all(np.isnan(resc[1]))
        assert resc[0].tolist() == [0.3, 0.0]

    def test_positive_rates_keep_arithmetic_order(self):
        rng = np.random.default_rng(4)
        norms = rng.normal(0.0, 0.3, (3, 3))
        lam = rng.uniform(0.1, 5.0, 3)
        baseline = rng.normal(1.0, 0.5, 3)
        assert np.array_equal(rescaled_norms(norms, lam),
                              norms * lam[None, :] / lam[:, None])
        assert np.array_equal(exogeneity_ratios(baseline, lam),
                              100.0 * baseline / lam)

    def test_event_free_component_gives_nan_rows(self):
        claw = random_law(5, [1.3, 0.0, 0.7])
        est = solve_wiener_hopf(claw, build_quadrature())
        lam = est.lam
        assert np.isnan(est.rescaled[1]).all()
        assert np.isnan(est.exogeneity_pct[1])
        live = [0, 2]
        assert np.isfinite(est.rescaled[live]).all()
        assert np.array_equal(est.rescaled[live],
                              est.norms[live] * lam[None, :] / lam[live, None])
        assert np.array_equal(est.exogeneity_pct[live],
                              100.0 * est.baseline[live] / lam[live])
        # with every rate positive the solve agrees with the public versions
        positive = solve_wiener_hopf(random_law(5, [1.3, 0.2, 0.7]),
                                     build_quadrature())
        assert np.array_equal(positive.rescaled,
                              rescaled_norms(positive.norms, positive.lam))
        assert np.array_equal(positive.exogeneity_pct,
                              exogeneity_ratios(positive.baseline, positive.lam))

    def test_recover_baseline(self):
        assert np.allclose(recover_baseline(np.zeros((2, 2)), [1.0, 2.0]),
                           [1.0, 2.0])
        assert recover_baseline(np.array([[0.5]]), [2.0])[0] == pytest.approx(1.0)

    def test_exogeneity_ratios_percent(self):
        assert exogeneity_ratios([2.0], [2.0])[0] == pytest.approx(100.0)
        assert exogeneity_ratios([1.0], [2.0])[0] == pytest.approx(50.0)
        ratios = exogeneity_ratios([1.0, 1.0], [2.0, 0.0])
        assert ratios[0] == 50.0 and np.isnan(ratios[1])

    def test_closure_identity_exact(self, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        closure = est.rescaled.sum(axis=1) + est.baseline / est.lam
        assert np.max(np.abs(closure - 1.0)) < 1e-13

    def test_row_sum_identity_on_multivariate_solve(self):
        phi = [[exp_kernel_fn(0.2, 10.0), exp_kernel_fn(0.1, 6.0)],
               [exp_kernel_fn(0.3, 12.0), exp_kernel_fn(0.15, 8.0)]]
        norms = np.array([[0.2, 0.1], [0.3, 0.15]])
        lam = np.linalg.solve(np.eye(2) - norms, [1.0, 0.5])
        t, g = fixed_point_claw(phi, lam, t_max=6.0, dt=2e-4)
        grid = build_linlog_grid(h_min=1e-3, h_max=6.0, n_lin=50, n_log=300)
        claw = claw_matrix_from_samples(grid, t, g, lam)
        est = solve_wiener_hopf(claw, build_quadrature())
        closure = est.rescaled.sum(axis=1) + est.baseline / est.lam
        assert np.allclose(closure, 1.0, atol=1e-13)
        # and the solve recovers the full norm matrix within a few percent
        truncated = norms * (1 - np.exp(-np.array([[10.0, 6.0], [12.0, 8.0]])
                                        * 0.5))
        assert np.allclose(est.norms, truncated, atol=0.02)


class TestScaleCovariance:
    def test_doubling_the_time_unit(self):
        from hawkesflow.simulate import ExponentialKernel, HawkesModel, simulate
        from hawkesflow.estimate import estimate_conditional_law
        from hawkesflow.events import MultivariateEventStream, Session

        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.4, 8.0)]])
        stream = simulate(model, 5e3, seed=51)
        c = 2.0
        sess = stream.sessions[0]
        scaled = MultivariateEventStream(1, (Session(
            sess.session_id, sess.duration * c,
            tuple(t * c for t in sess.times)),))

        grid = build_linlog_grid(h_min=1e-3, h_max=2.0, n_lin=10, n_log=100)
        grid_c = build_linlog_grid(h_min=1e-3 * c, h_max=2.0 * c,
                                   n_lin=10, n_log=100)
        quad = build_quadrature()
        quad_c = build_quadrature(x_min=quad.x_min * c, x_max=quad.x_max * c)

        est = solve_wiener_hopf(estimate_conditional_law(stream, grid), quad)
        est_c = solve_wiener_hopf(
            estimate_conditional_law(scaled, grid_c), quad_c)

        # rate and kernel values scale by 1/c, nodes by c; norms and
        # exogeneity ratios are invariant (exact for c = 2)
        assert np.allclose(est_c.lam, est.lam / c, rtol=1e-12)
        assert np.allclose(est_c.quad.nodes, est.quad.nodes * c, rtol=1e-12)
        assert np.allclose(est_c.values, est.values / c, rtol=1e-9, atol=1e-12)
        assert np.allclose(est_c.norms, est.norms, rtol=1e-9)
        assert np.allclose(est_c.exogeneity_pct, est.exogeneity_pct, rtol=1e-9)


class TestNegativityPropagation:
    def neg_claw(self):
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=60)
        g_fn = lambda t: (2.0 * np.exp(-8.0 * np.maximum(t, 0.0))
                          - 1.8 * ((t > 0.05) & (t <= 0.12)))
        return ConditionalLawMatrix.from_function(grid, [[g_fn]], [1.0])

    def test_hand_built_negative_law_forces_negative_kernel(self):
        report = verify_negativity_propagation(self.neg_claw(),
                                               build_quadrature())
        assert report.hypothesis_holds
        assert report.negative_found
        assert report.min_value < 0.0
        i, j, node = report.location
        assert (i, j) == (0, 0)
        assert 0.03 < node < 0.2  # near the carved-out negative window

    def test_independent_20_node_dense_solve_agrees_on_sign(self):
        # oracle: uniform-grid Nystrom solve written out longhand
        claw = self.neg_claw()
        n = 20
        nodes = np.linspace(0.0, 0.5, n)
        h = nodes[1] - nodes[0]
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        g_of = lambda tau: value_at_lag(claw, 0, 0, np.asarray(tau, dtype=float))
        a = np.eye(n) + w[None, :] * g_of(nodes[:, None] - nodes[None, :])
        phi = np.linalg.solve(a, g_of(nodes))
        assert phi.min() < 0.0
        window = (nodes > 0.03) & (nodes < 0.2)
        assert phi[window].min() == phi.min()

    def test_vacuous_when_law_nonnegative(self):
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=60)
        claw = ConditionalLawMatrix.from_function(
            grid, [[exp_kernel_fn(0.4, 8.0)]], [1.0])
        report = verify_negativity_propagation(claw, build_quadrature())
        assert not report.hypothesis_holds
        assert not report.negative_found
        assert report.estimate is None


class TestSerializationOutputs:
    def test_save_kernel_estimate_files(self, tmp_path, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        written = save_kernel_estimate(est, tmp_path, labels=["B1"])
        names = {p.name for p in written}
        assert {"kernel_0_0.csv", "norms.csv", "rescaled_norms.csv",
                "baseline.csv", "kernel_manifest.json"} <= names
        # lossless round trip of the kernel values
        import csv as csvmod
        with open(tmp_path / "kernel_0_0.csv") as fh:
            rows = list(csvmod.reader(fh))[1:]
        values = np.array([float(r[2]) for r in rows])
        assert np.array_equal(values, est.values[0, 0])

    def test_label_count_checked(self, tmp_path, oracle_1d):
        est = solve_wiener_hopf(oracle_1d, build_quadrature())
        with pytest.raises(ValueError):
            save_kernel_estimate(est, tmp_path, labels=["a", "b"])
