import json

import numpy as np
import pytest

from hawkesflow.estimate import (
    ConditionalLawMatrix,
    build_linlog_grid,
    estimate_conditional_law,
    estimate_mean_intensity,
    load_claw,
    save_claw,
)
from hawkesflow.events import MultivariateEventStream, Session, combine_streams
from hawkesflow.simulate import (
    ExponentialKernel,
    HawkesModel,
    ZeroKernel,
    simulate,
)
from oracles import (
    direct_negative_lag_counts,
    fixed_point_claw,
    normalized_law,
    stderr_at_lag,
    value_at_lag,
)


def stream_of(times_lists, duration, session_id="s"):
    arrays = tuple(np.asarray(t, dtype=float) for t in times_lists)
    return MultivariateEventStream(len(arrays),
                                   (Session(session_id, duration, arrays),))


def law_at(claw, i, j, lags, **kwargs):
    """The (i <- j) law at ``lags`` through the one lookup."""
    return list(claw.at_lags(np.asarray(lags, dtype=float), **kwargs))[j][i]


def bin_midpoints(grid):
    mid = 0.5 * (grid.edges[:-1] + grid.edges[1:])
    assert np.array_equal(grid.bin_index(mid), np.arange(grid.n_bins))
    return mid


class TestMeanIntensity:
    def test_simple_rate(self):
        rng = np.random.default_rng(0)
        stream = stream_of([np.sort(rng.uniform(0, 50, 100))], 50.0)
        assert estimate_mean_intensity(stream)[0] == pytest.approx(2.0)

    def test_empty_component_is_zero(self):
        stream = stream_of([[1.0], []], 10.0)
        lam = estimate_mean_intensity(stream)
        assert lam[1] == 0.0

    def test_pooling_weights_by_duration(self):
        s1 = stream_of([np.linspace(0.5, 9.5, 5)], 10.0, "a")
        s2 = stream_of([np.linspace(1.0, 29.0, 15)], 30.0, "b")
        stream = combine_streams([s1, s2])
        assert estimate_mean_intensity(stream)[0] == pytest.approx(0.5)


class TestConditionalLaw:
    def test_poisson_null_within_four_sigma(self):
        model = HawkesModel.linear(
            [1.0, 1.0], [[ZeroKernel(), ZeroKernel()],
                         [ZeroKernel(), ZeroKernel()]])
        stream = simulate(model, 2e4, seed=21)
        grid = build_linlog_grid(h_min=1e-3, h_max=5.0, n_lin=50, n_log=200)
        claw = estimate_conditional_law(stream, grid)
        checked = 0
        within = 0
        for i in range(2):
            for j in range(2):
                mask = claw.pair_counts[i, j] >= 50
                checked += int(mask.sum())
                within += int(np.sum(
                    np.abs(claw.values[i, j][mask])
                    <= 4 * claw.stderr[i, j][mask]))
        assert checked > 100
        assert within / checked >= 0.99

    def test_exp_hawkes_integral_matches_oracle(self):
        # frozen from the forward fixed-point oracle (validated against the
        # exact law 7.5 e^{-5t}): integral of g over lag > 0 is 1.5
        oracle_integral = 1.5
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        stream = simulate(model, 4e4, seed=22)
        grid = build_linlog_grid(h_min=1e-3, h_max=5.0, n_lin=50, n_log=300)
        claw = estimate_conditional_law(stream, grid)
        ok = claw.has_window[0]
        integral = float(np.sum(claw.values[0, 0][ok] * claw.grid.widths[ok]))
        assert integral == pytest.approx(oracle_integral, rel=0.15)
        # shape: positive and decreasing below 1/beta, on width-averaged
        # windows (single fine bins are noise-dominated)
        def window_mean(lo, hi):
            sel = (claw.grid.edges[:-1] >= lo) & (claw.grid.edges[1:] <= hi)
            w = claw.grid.widths[sel]
            return float(np.sum(claw.values[0, 0][sel] * w) / np.sum(w))
        first = window_mean(0.0, 0.01)
        second = window_mean(0.03, 0.1)
        assert first > second > 0

    def test_frozen_constant_agrees_with_oracle_rerun(self):
        phi = [[lambda t: 0.5 * 10.0 * np.exp(-10.0 * np.maximum(t, 0.0))
                * (t >= 0)]]
        t, g = fixed_point_claw(phi, [2.0], t_max=4.0, dt=5e-4)
        assert np.trapezoid(g[0, 0], t) == pytest.approx(1.5, rel=0.01)

    def test_single_event_at_session_end_flags_all_bins(self):
        stream = stream_of([[10.0]], 10.0)
        grid = build_linlog_grid(h_min=0.01, h_max=1.0, n_lin=5, n_log=20)
        claw = estimate_conditional_law(stream, grid)
        assert not claw.has_window[0].any()
        assert np.all(claw.values[0, 0] == 0.0)

    def test_self_pair_never_counted(self):
        # a single event yields no (i, i) pair in any bin
        stream = stream_of([[2.0]], 10.0)
        grid = build_linlog_grid(h_min=0.01, h_max=1.0, n_lin=5, n_log=20)
        claw = estimate_conditional_law(stream, grid)
        assert claw.pair_counts[0, 0].sum() == 0
        assert claw.has_window[0].all()

    def test_negative_lag_identity_against_direct_counting(self):
        model = HawkesModel.linear(
            [1.0, 1.0],
            [[ZeroKernel(), ZeroKernel()],
             [ExponentialKernel(0.5, 5.0), ZeroKernel()]])
        stream = simulate(model, 5e3, seed=23)
        grid = build_linlog_grid(h_min=0.01, h_max=1.0, n_lin=10, n_log=25)
        claw = estimate_conditional_law(stream, grid)
        sess = stream.sessions[0]
        # direct estimate of g^{12} at negative lags: count 1-events before
        # each 2-event
        counts, adm = direct_negative_lag_counts(
            sess.times[0], sess.times[1], sess.duration, grid.edges)
        widths = grid.widths
        lam = claw.lam
        direct = counts / (widths * np.maximum(adm, 1)) - lam[0]
        se_direct = np.sqrt(np.maximum(counts, 1)) / (widths * np.maximum(adm, 1))
        mid = bin_midpoints(grid)
        identity = law_at(claw, 0, 1, -mid)
        se_id = law_at(claw, 0, 1, -mid, stderr=True)
        for b in range(grid.n_bins):
            if adm[b] == 0 or claw.pair_counts[1, 0][b] < 20:
                continue
            tol = 4.0 * np.hypot(se_id[b], se_direct[b])
            assert abs(identity[b] - direct[b]) <= tol

    def test_diagonal_negative_lag_is_symmetric(self):
        stream = stream_of([np.linspace(0.5, 9.5, 30)], 10.0)
        grid = build_linlog_grid(h_min=0.01, h_max=2.0, n_lin=5, n_log=20)
        claw = estimate_conditional_law(stream, grid)
        bins = [0, 5, 10]
        mirrored = law_at(claw, 0, 0, -bin_midpoints(grid)[bins])
        assert mirrored == pytest.approx(claw.values[0, 0, bins])

    def test_session_splitting_does_not_bias(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.4, 8.0)]])
        long_run = simulate(model, 4e3, seed=24)
        half_a = simulate(model, 2e3, seed=25)
        half_b = simulate(model, 2e3, seed=26)
        split = combine_streams([half_a, half_b])
        grid = build_linlog_grid(h_min=1e-2, h_max=2.0, n_lin=10, n_log=40)
        claw_long = estimate_conditional_law(long_run, grid)
        claw_split = estimate_conditional_law(split, grid)
        mask = (claw_long.pair_counts[0, 0] >= 30) \
            & (claw_split.pair_counts[0, 0] >= 30)
        diff = claw_long.values[0, 0][mask] - claw_split.values[0, 0][mask]
        tol = 5.0 * np.hypot(claw_long.stderr[0, 0][mask],
                             claw_split.stderr[0, 0][mask])
        assert np.all(np.abs(diff) <= tol)

    def test_weighting_modes_agree_on_balanced_sessions(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.3, 10.0)]])
        stream = combine_streams([simulate(model, 2e3, seed=27),
                                  simulate(model, 2e3, seed=28)])
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=30)
        by_events = estimate_conditional_law(stream, grid, weighting="events")
        by_sessions = estimate_conditional_law(stream, grid,
                                               weighting="sessions")
        mask = by_events.pair_counts[0, 0] >= 30
        diff = np.abs(by_events.values[0, 0][mask]
                      - by_sessions.values[0, 0][mask])
        assert np.all(diff <= 3 * by_events.stderr[0, 0][mask] + 1e-9)

    def test_session_weighting_ignores_session_ids(self):
        # files ingested one by one all get the default id "session-0"
        grid = build_linlog_grid(h_min=0.1, h_max=5.0, n_lin=5, n_log=10)
        a, b = [1.0, 1.5, 2.0], [5.0, 9.0]
        same = combine_streams([stream_of([a], 10.0), stream_of([b], 10.0)])
        distinct = combine_streams([stream_of([a], 10.0, "a"),
                                    stream_of([b], 10.0, "b")])
        laws = [estimate_conditional_law(s, grid, weighting="sessions")
                for s in (same, distinct)]
        assert np.array_equal(laws[0].values, laws[1].values)

    def test_workers_do_not_change_results(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.3, 10.0)]])
        stream = simulate(model, 1e3, seed=29)
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=30)
        serial = estimate_conditional_law(stream, grid)
        threaded = estimate_conditional_law(stream, grid, workers=4)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.pair_counts, threaded.pair_counts)


class TestLawNormalisation:
    @pytest.mark.parametrize("weighting", ["events", "sessions"])
    def test_bit_identical_to_former_loops(self, weighting):
        # three sessions of unequal length; component 1 fires only in the
        # one shorter than h_max, so its far bins admit no j-event at all
        rng = np.random.default_rng(41)
        sessions = []
        for k, (duration, n) in enumerate([(40.0, 60), (3.0, 9), (25.0, 40)]):
            times = [np.sort(rng.uniform(0, duration, n)) for _ in range(3)]
            if k != 1:
                times[1] = np.empty(0)
            sessions.append(stream_of(times, duration, f"s{k}"))
        stream = combine_streams(sessions)
        grid = build_linlog_grid(h_min=0.05, h_max=5.0, n_lin=5, n_log=20)
        claw = estimate_conditional_law(stream, grid, weighting=weighting)
        values, stderr = normalized_law(stream, grid, claw.lam, weighting)
        assert not np.all(claw.admissible > 0)
        assert claw.values.tobytes() == values.tobytes()
        assert claw.stderr.tobytes() == stderr.tobytes()


class TestLagLookup:
    def make_claw(self):
        grid = build_linlog_grid(h_min=1.0, h_max=np.e ** 2, n_lin=2, n_log=2)
        # bins (0,.5], (.5,1], (1,e], (e,e^2]
        funcs = [[lambda t: np.full_like(t, 2.0), lambda t: np.full_like(t, 3.0)],
                 [lambda t: np.full_like(t, 5.0), lambda t: np.full_like(t, 7.0)]]
        return ConditionalLawMatrix.from_function(grid, funcs, [1.0, 2.0])

    def test_positive_lag_lookup(self):
        claw = self.make_claw()
        assert law_at(claw, 0, 1, [0.3])[0] == pytest.approx(3.0)

    def test_negative_lag_uses_time_reversal(self):
        claw = self.make_claw()
        # g^{01}(-t) = (lam_0/lam_1) g^{10}(t) = 0.5 * 5
        assert law_at(claw, 0, 1, [-0.3])[0] == pytest.approx(2.5)

    def test_zero_lag_conventions(self):
        claw = self.make_claw()
        avg = law_at(claw, 0, 1, [0.0], zero="average")[0]
        right = law_at(claw, 0, 1, [0.0], zero="right")[0]
        assert right == pytest.approx(3.0)
        assert avg == pytest.approx(0.5 * (3.0 + 2.5))
        with pytest.raises(ValueError):
            law_at(claw, 0, 1, [0.0], zero="left")

    def test_out_of_range_lag_is_zero(self):
        claw = self.make_claw()
        assert law_at(claw, 0, 0, [100.0])[0] == 0.0

    @pytest.mark.parametrize("lam", [[0.8, 1.7, 2.4], [1.3, 0.0, 0.7]],
                             ids=["positive-rates", "event-free"])
    def test_bit_identical_to_former_lookups(self, lam):
        rng = np.random.default_rng(5)
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=30)
        d, b = len(lam), grid.n_bins
        claw = ConditionalLawMatrix(
            grid, rng.normal(0.0, 0.3, (d, d, b)), rng.uniform(0.0, 0.1, (d, d, b)),
            np.zeros((d, d, b), dtype=np.int64), np.ones((d, b), dtype=np.int64),
            np.asarray(lam), total_time=1.0)
        # both signs, lag zero, bin edges and lags past h_max
        lags = np.concatenate([rng.uniform(-1.5, 1.5, 199), [0.0, 1.0, -1.0],
                               grid.edges[:5], -grid.edges[:5]]).reshape(4, -1)
        for j, (avg, right, err) in enumerate(zip(
                claw.at_lags(lags), claw.at_lags(lags, zero="right"),
                claw.at_lags(lags, zero="right", stderr=True))):
            assert avg.shape == right.shape == err.shape == (d,) + lags.shape
            for i in range(d):
                assert avg[i].tobytes() == value_at_lag(claw, i, j, lags).tobytes()
                assert right[i].tobytes() == value_at_lag(
                    claw, i, j, lags, zero="right").tobytes()
                assert err[i].tobytes() == stderr_at_lag(claw, i, j, lags).tobytes()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.3, 10.0)]])
        stream = simulate(model, 500.0, seed=31)
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=20)
        claw = estimate_conditional_law(stream, grid)
        save_claw(claw, tmp_path)
        again = load_claw(tmp_path)
        assert np.array_equal(claw.values, again.values)
        assert np.array_equal(claw.stderr, again.stderr)
        assert np.array_equal(claw.pair_counts, again.pair_counts)
        assert np.array_equal(claw.admissible, again.admissible)
        assert np.array_equal(claw.lam, again.lam)
        assert claw.total_time == again.total_time

    @pytest.mark.parametrize("sizes", [{}, {"h_max": 5.0, "n_log": 300}],
                             ids=["default", "book12"])
    def test_grid_rebuilt_from_its_sizes(self, tmp_path, sizes):
        grid = build_linlog_grid(**sizes)
        claw = estimate_conditional_law(stream_of([[0.5, 1.0, 3.0]], 10.0), grid)
        save_claw(claw, tmp_path)
        again = load_claw(tmp_path).grid
        assert again.edges.tobytes() == grid.edges.tobytes()
        assert list(again.to_dict().items()) == list(grid.to_dict().items())

    def test_edited_step_refused(self, tmp_path):
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=20)
        save_claw(estimate_conditional_law(stream_of([[0.5, 0.6]], 2.0), grid),
                  tmp_path)
        path = tmp_path / "claw_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["grid"]["delta_log"] *= 1.01
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="claw_manifest.json: grid"):
            load_claw(tmp_path)
