"""End-to-end paths that cross module boundaries: a full-book event table
feeding the D = 12 estimator and its reports, simulator path equivalences,
and the calibration of propagated kernel error bars.
"""

import numpy as np
import pytest
from scipy import stats as sps

from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law
from hawkesflow.events import (
    BinningMode,
    BinningScheme,
    EventTable,
    EventType,
    Side,
    assign_components,
    flow_statistics,
)
from hawkesflow.report import emit_flow_report, emit_norm_tables
from hawkesflow.simulate import (
    ExponentialKernel,
    HawkesModel,
    TabulatedKernel,
    ZeroKernel,
    simulate,
)
from hawkesflow.whsolve import build_quadrature, solve_wiener_hopf


def synthetic_book_events(seed: int, n_events: int = 4000) -> EventTable:
    """Limits, cancels and trades on both sides of the best quotes, with
    volumes of 1 to 14 and gaps of 50 us to 5 ms."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(50, 5000, size=n_events))
    etypes = rng.choice(3, size=n_events, p=[0.45, 0.35, 0.2])
    asks = rng.random(n_events) < 0.5
    volumes = rng.integers(1, 15, size=n_events)
    etype = [EventType.LIMIT, EventType.CANCEL, EventType.TRADE]
    return EventTable.from_rows(
        (int(t), etype[e], Side.ASK if ask else Side.BID, int(v), 101 if ask else 100)
        for t, e, ask, v in zip(ts, etypes, asks, volumes))


class TestFullBookToKernels:
    def test_full_book_pipeline(self, tmp_path):
        events = synthetic_book_events(seed=73)
        scheme = BinningScheme(BinningMode.FULL_BOOK, (4,))
        stream = assign_components(events, scheme)
        assert stream.dimension == 12
        assert np.all(stream.total_counts > 0)
        assert stream.total_counts.sum() == len(events)

        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=30)
        claw = estimate_conditional_law(stream, grid)
        est = solve_wiener_hopf(claw, build_quadrature(), compute_stderr=False)
        assert est.values.shape == (12, 12, est.quad.n_nodes)
        assert np.all(np.isfinite(est.values))
        assert est.residual <= 1e-8

        files = emit_norm_tables(est, scheme.labels(), tmp_path, scheme)
        names = {p.name for p in files}
        assert "norms_ask_bid.csv" in names  # quadrant extraction at D=12

        stats = flow_statistics(stream, events_by_session=[events])
        emit_flow_report(stats, tmp_path, scheme.labels())
        assert (tmp_path / "volume_histogram.csv").exists()


class TestSimulatorPathEquivalences:
    def test_vector_exp_path_poisson_limit_ks(self):
        model = HawkesModel.linear(
            [1.0, 1.0], [[ZeroKernel(), ZeroKernel()],
                         [ZeroKernel(), ZeroKernel()]])
        stream = simulate(model, 2e4, seed=81)
        for comp in range(2):
            gaps = np.diff(stream.sessions[0].times[comp])
            assert sps.kstest(gaps, "expon", args=(0.0, 1.0)).pvalue > 0.01

    def test_tabulated_kernel_matches_exponential_in_law(self):
        beta = 10.0
        grid_t = np.linspace(0.0, 2.5, 2001)
        tab = TabulatedKernel(tuple(grid_t), tuple(0.4 * beta * np.exp(-beta * grid_t)))
        assert tab.norm() == pytest.approx(0.4, rel=1e-3)
        model_tab = HawkesModel.linear([1.0], [[tab]])
        stream = simulate(model_tab, 1e4, seed=82)  # generic thinning path
        rate = stream.total_counts[0] / stream.total_time
        assert rate == pytest.approx(1.0 / 0.6, rel=0.05)


class TestErrorBarCalibration:
    @pytest.mark.parametrize("model", [
        pytest.param(HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]]),
                     id="d1"),
        pytest.param(HawkesModel.linear(
            [0.5, 0.5],
            [[ExponentialKernel(0.3, 10.0), ExponentialKernel(0.2, 10.0)],
             [ExponentialKernel(0.2, 10.0), ExponentialKernel(0.3, 10.0)]]),
            id="d2_mutual"),
    ])
    def test_propagated_stderr_tracks_ensemble_spread(self, model):
        grid = build_linlog_grid(h_min=1e-3, h_max=2.0, n_lin=20, n_log=120)
        quad = build_quadrature()
        runs = []
        reported = []
        for k in range(8):
            stream = simulate(model, 2e4, seed=900 + k)
            est = solve_wiener_hopf(estimate_conditional_law(stream, grid),
                                    quad)
            runs.append(est.values)
            reported.append(est.stderr)
        spread = np.std(np.array(runs), axis=0, ddof=1)
        typical = np.array(reported).mean(axis=0)
        # compare where the kernels are estimable at all; first-order error
        # propagation should land within a factor of two of reality
        sel = (quad.nodes > 1e-3) & (quad.nodes < 0.3)
        ratio = typical[..., sel] / np.maximum(spread[..., sel], 1e-12)
        assert 0.5 < np.median(ratio) < 2.0
