import numpy as np
import pytest
from scipy import stats as sps

from hawkesflow.errors import StabilityError
from hawkesflow.simulate import (
    ExponentialKernel,
    HawkesModel,
    ModelFlavor,
    PowerLawKernel,
    TabulatedKernel,
    ZeroKernel,
    mean_intensity,
    simulate,
    thinning,
)
from oracles import (
    _BlockRng,
    _simulate_exponential,
    _simulate_generic,
    compensator_increments,
)


def poisson_model(rates):
    d = len(rates)
    kernels = [[ZeroKernel() for _ in range(d)] for _ in range(d)]
    return HawkesModel.linear(rates, kernels)


class TestThinning:
    def test_poisson_count_within_three_sigma(self):
        stream = simulate(poisson_model([2.0]), 1e5, seed=1)
        n = stream.total_counts[0]
        assert abs(n - 2e5) < 3 * np.sqrt(2e5)

    def test_poisson_interevent_times_pass_ks(self):
        stream = simulate(poisson_model([2.0]), 5e4, seed=2)
        gaps = np.diff(stream.sessions[0].times[0])
        assert len(gaps) > 9e4
        result = sps.kstest(gaps, "expon", args=(0.0, 0.5))
        assert result.pvalue > 0.01

    def test_exponential_rate_matches_stationarity_relation(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        stream = simulate(model, 2e5, seed=3)
        rate = stream.total_counts[0] / stream.total_time
        assert rate == pytest.approx(2.0, rel=0.03)

    def test_multivariate_rates_match_stationarity_relation(self):
        model = HawkesModel.linear(
            [0.5, 1.0],
            [[ExponentialKernel(0.2, 8.0), ExponentialKernel(0.3, 4.0)],
             [ExponentialKernel(0.4, 12.0), ExponentialKernel(0.1, 6.0)]])
        lam = mean_intensity(model)
        stream = simulate(model, 5e4, seed=4)
        emp = stream.total_counts / stream.total_time
        for i in range(2):
            sigma = np.sqrt(lam[i] / 5e4)
            # Hawkes counts are overdispersed vs Poisson; allow a wide band
            assert abs(emp[i] - lam[i]) < 12 * sigma

    def test_deterministic_given_seed(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        a = simulate(model, 500.0, seed=9)
        b = simulate(model, 500.0, seed=9)
        c = simulate(model, 500.0, seed=10)
        assert np.array_equal(a.sessions[0].times[0], b.sessions[0].times[0])
        assert not np.array_equal(a.sessions[0].times[0],
                                  c.sessions[0].times[0])

    def test_unstable_model_rejected(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(1.05, 5.0)]])
        with pytest.raises(StabilityError):
            simulate(model, 100.0, seed=1)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate(poisson_model([1.0]), 0.0, seed=1)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_nonfinite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="finite and positive"):
            simulate(poisson_model([1.0]), horizon, seed=1)

    def test_inhibition_lowers_rate_below_excitation_only_prediction(self):
        inhibited = HawkesModel.linear(
            [1.0, 1.0],
            [[ZeroKernel(), ExponentialKernel(-0.6, 8.0)],
             [ZeroKernel(), ZeroKernel()]],
            flavor="positive_part")
        stream = simulate(inhibited, 3e4, seed=5)
        emp = stream.total_counts / stream.total_time
        # without the inhibitory cross kernel component 1 would run at 1.0/s
        assert emp[0] < 1.0 - 10 * np.sqrt(1.0 / 3e4)
        # same seed, inhibition removed: strictly more events in component 1
        excitatory = HawkesModel.linear(
            [1.0, 1.0], [[ZeroKernel(), ZeroKernel()],
                         [ZeroKernel(), ZeroKernel()]])
        baseline_run = simulate(excitatory, 3e4, seed=5)
        assert stream.total_counts[0] < baseline_run.total_counts[0]
        assert stream.sessions[0].meta["clipping_frequency"] > 0.0

    def test_generic_path_power_law_rate(self):
        model = HawkesModel.linear(
            [1.0], [[PowerLawKernel(c=0.004, gamma=2.0, t0=0.01)]])
        assert model.norm_matrix()[0, 0] == pytest.approx(0.4)
        stream = simulate(model, 2e4, seed=6)
        rate = stream.total_counts[0] / stream.total_time
        # Lambda = 1 / (1 - 0.4); power-law clusters are long-ranged, so the
        # band is generous but the Poisson-only rate 1.0 must be excluded
        assert rate == pytest.approx(1.0 / 0.6, rel=0.08)

    def test_burn_in_recorded_and_session_clean(self):
        stream = simulate(poisson_model([1.0]), 100.0, seed=7)
        sess = stream.sessions[0]
        # a Poisson model has no memory: the 10 s floor
        assert sess.meta["burn_in"] == 10.0
        assert sess.duration == 100.0
        assert all(np.all((t >= 0) & (t <= 100.0)) for t in sess.times)


def exp_support(alpha, beta):
    """``support(1e-8)`` of ``ExponentialKernel(alpha, beta)``."""
    return np.log(abs(alpha) * beta / 1e-8) / beta


class TestBurnIn:
    """The burn-in is the longest kernel support over 1 - rho, within
    [10 s, 1000 s], on the kernels and the rho the thinning loop uses."""

    @pytest.mark.parametrize("model, expected", [
        pytest.param(poisson_model([2.0, 0.5]), 10.0, id="poisson_floor"),
        pytest.param(HawkesModel.linear([0.0], [[ExponentialKernel(0.5, 0.1)]]),
                     0.0, id="no_baseline"),
        pytest.param(HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 0.1)]]),
                     exp_support(0.5, 0.1) / 0.5, id="exponential"),
        # support 632 s over 1 - 0.4
        pytest.param(HawkesModel.linear([1.0], [[PowerLawKernel(0.004, 2.0, 0.01)]]),
                     1000.0, id="power_law_cap"),
        # derived kernels 0.4 * p_i * f_j: the longest is 0.6, not the
        # base kernel's 0.4; rho = 0.4 * (0.5 * 1 + 0.5 * 3)
        pytest.param(HawkesModel.factorized(1.0, ExponentialKernel(0.4, 1.0),
                                            [1.0, 3.0], [0.5, 0.5]),
                     exp_support(0.6, 1.0) / 0.2, id="factorized"),
        # the inhibitory kernel is the longest; rho of the positive parts
        # is 0.3, where the plain norms give 0.5
        pytest.param(HawkesModel.linear(
            [1.0, 1.0],
            [[ExponentialKernel(0.3, 1.0), ExponentialKernel(-0.4, 0.5)],
             [ExponentialKernel(0.4, 1.0), ExponentialKernel(0.3, 1.0)]],
            flavor="positive_part"), exp_support(-0.4, 0.5) / 0.7, id="positive_part"),
    ])
    def test_recorded_burn_in(self, model, expected):
        stream = simulate(model, 1.0, seed=21)
        assert stream.sessions[0].meta["burn_in"] == pytest.approx(expected, rel=1e-12)

    def test_slow_kernel_session_starts_stationary(self):
        # mu 10, rho 0.5, beta 0.1: Lambda = 20/s, so a stationary 20 s
        # window holds 400 events on average.  Started empty, the mean rate
        # is 20 - 10 exp(-0.05 t); a 10 s burn-in would leave about 323
        # in the window.  Var N(20) <= Lambda T / (1 - rho)^2 = 1600, so the
        # mean of 8 seeds has sd <= 14.1 and the band is about 3.2 sd wide
        # on either side.
        model = HawkesModel.linear([10.0], [[ExponentialKernel(0.5, 0.1)]])
        streams = [simulate(model, 20.0, seed) for seed in range(2101, 2109)]
        assert streams[0].sessions[0].meta["burn_in"] > 300.0
        assert 355.0 <= np.mean([s.total_counts[0] for s in streams]) <= 445.0


class TestFactorized:
    def test_zero_mark_function_gives_poisson(self):
        model = HawkesModel.factorized(
            2.0, ExponentialKernel(0.5, 10.0), [0.0, 0.0], [0.5, 0.5])
        stream = simulate(model, 5e4, seed=11)
        total = stream.total_counts.sum()
        assert abs(total - 1e5) < 3 * np.sqrt(1e5)
        # marks i.i.d.: each component holds about half
        assert abs(stream.total_counts[0] - total / 2) < 3 * np.sqrt(total / 4)

    def test_uniform_marks_match_equivalent_linear_model(self):
        base = ExponentialKernel(0.5, 10.0)
        fact = HawkesModel.factorized(2.0, base, [1.0, 1.0], [0.5, 0.5])
        stream_f = simulate(fact, 5e4, seed=12)
        half = ExponentialKernel(0.25, 10.0)
        linear = HawkesModel.linear(
            [1.0, 1.0], [[half, half], [half, half]])
        stream_l = simulate(linear, 5e4, seed=13)
        lam = mean_intensity(linear)
        for stream in (stream_f, stream_l):
            emp = stream.total_counts / stream.total_time
            assert np.allclose(emp, lam, rtol=0.05)

    def test_routing_through_simulate_entry_point(self):
        # a factorized model simulates as the kernel matrix it derives
        model = HawkesModel.factorized(
            1.0, ExponentialKernel(0.4, 10.0), [1.0, 2.0], [0.5, 0.5])
        matrix = HawkesModel.linear(model.baseline, model.kernels)
        a = simulate(model, 200.0, seed=14)
        b = simulate(matrix, 200.0, seed=14)
        assert a.total_counts.sum() > 100
        for ta, tb in zip(a.sessions[0].times, b.sessions[0].times):
            assert np.array_equal(ta, tb)

    def test_unstable_effective_norms_rejected(self):
        model = HawkesModel.factorized(
            1.0, ExponentialKernel(0.8, 10.0), [1.0, 2.0], [0.5, 0.5])
        with pytest.raises(StabilityError):
            simulate(model, 100.0, seed=1)


class TestFactorizedCollapseLaw:
    def test_target_ratio_of_laws_independent_of_source(self):
        # the law matrix of a factorized stream inherits the product
        # structure: g[i,j](t) ~ p_i * G_j(t), so the ratio across targets
        # at fixed source is the mark-probability ratio for every source
        from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law

        model = HawkesModel.factorized(
            1.0, ExponentialKernel(0.4, 10.0), [1.0, 2.0], [0.5, 0.5])
        stream = simulate(model, 5e4, seed=15)
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=40)
        claw = estimate_conditional_law(stream, grid)

        def window_mean(i, j, lo, hi):
            sel = (grid.edges[:-1] >= lo) & (grid.edges[1:] <= hi)
            w = grid.widths[sel]
            return float(np.sum(claw.values[i, j][sel] * w) / np.sum(w))

        # averaged over a solid window so noise is negligible
        ratios = [window_mean(0, j, 0.0, 0.2) / window_mean(1, j, 0.0, 0.2)
                  for j in (0, 1)]
        for r in ratios:
            assert r == pytest.approx(1.0, abs=0.15)  # p_0 / p_1 = 1
        assert ratios[0] == pytest.approx(ratios[1], abs=0.2)


def tabulated_exponential(norm, beta, end=2.5, n=201):
    grid = np.linspace(0.0, end, n)
    return TabulatedKernel(tuple(grid), tuple(norm * beta * np.exp(-beta * grid)))


def book12_model():
    """The D=12 full-book positive-part model of the benchmark's book12
    workload: ask L1 L2 C1 C2 T1 T2, then the same on the bid side, with
    inhibitory cross-side trade kernels."""
    d = 12
    mu = np.tile([0.50, 0.35, 0.40, 0.30, 0.25, 0.20], 2)
    alpha = np.zeros((d, d))
    beta = np.full((d, d), 10.0)
    for side in (0, 6):
        lim, can, trd = side + np.arange(2), side + 2 + np.arange(2), side + 4 + np.arange(2)
        for c in range(side, side + 6):
            alpha[c, c], beta[c, c] = 0.25, 25.0
        alpha[can, lim] = 0.15
        alpha[trd, lim] = 0.05
        alpha[lim, trd], beta[lim, trd] = 0.20, 40.0
        other = trd + 6 if side == 0 else trd - 6
        alpha[other, trd], beta[other, trd] = -0.15, 15.0
    kernels = [[ExponentialKernel(alpha[i, j], beta[i, j]) if alpha[i, j] else ZeroKernel()
                for j in range(d)] for i in range(d)]
    return HawkesModel.linear(mu, kernels, flavor="positive_part")


def mutual_d2():
    return HawkesModel.linear(
        [0.5, 1.0],
        [[ExponentialKernel(0.2, 8.0), ExponentialKernel(0.3, 4.0)],
         [ExponentialKernel(0.4, 12.0), ExponentialKernel(0.1, 6.0)]])


def mixed_d2():
    # The reference sums every kernel of a source over one history window,
    # the longest support among them.  Here each exponential kernel shares
    # its source with a kernel of longer support, so both loops sum the
    # same past events: none of the exponential tails is cut measurably,
    # and no windowed kernel is summed further out than its own support.
    return HawkesModel.linear(
        [0.6, 0.8],
        [[ExponentialKernel(0.3, 10.0), tabulated_exponential(0.2, 10.0)],
         [PowerLawKernel(0.002, 2.0, 0.01), ExponentialKernel(-0.3, 20.0)]],
        flavor="positive_part")


EXP_D1 = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
POWER_LAW_D1 = HawkesModel.linear([1.0], [[PowerLawKernel(0.004, 2.0, 0.01)]])


class TestReferenceIdentity:
    """The thinning loop against the former exponential-state and
    windowed-history loops: the same draws give the same candidates, the
    same events, and the same times up to rounding."""

    @pytest.mark.parametrize("model, horizon, seed, reference", [
        pytest.param(EXP_D1, 2000.0, 31, _simulate_exponential, id="exp_d1"),
        pytest.param(mutual_d2(), 2000.0, 32, _simulate_exponential, id="linear_d2"),
        pytest.param(book12_model(), 100.0, 33, _simulate_exponential,
                     id="book12_positive_part"),
        pytest.param(POWER_LAW_D1, 1000.0, 34, _simulate_generic, id="power_law_d1"),
        pytest.param(HawkesModel.linear([1.0], [[tabulated_exponential(0.4, 10.0)]]),
                     1000.0, 35, _simulate_generic, id="tabulated_d1"),
        pytest.param(mixed_d2(), 1000.0, 36, _simulate_generic, id="mixed_d2"),
    ])
    def test_same_stream_as_reference(self, model, horizon, seed, reference):
        total = horizon + thinning._burn_in(model, model.branching_radius())
        times, candidates, clipped = thinning._thin(
            model, total, thinning._BlockRng(seed))
        ref_times, ref_candidates, ref_clipped = reference(
            model, total, _BlockRng(seed))
        assert candidates == ref_candidates
        assert [len(t) for t in times] == [len(t) for t in ref_times]
        assert sum(len(t) for t in times) > 500
        for a, b in zip(times, ref_times):
            assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= 1e-9
        if model.flavor is ModelFlavor.POSITIVE_PART:
            assert clipped == ref_clipped > 0


class TestTimeRescaling:
    """Compensator increments between events are iid Exp(1) under the
    simulated model (time-rescaling theorem)."""

    @pytest.mark.parametrize("model, horizon, seed", [
        pytest.param(EXP_D1, 2e4, 1101, id="exp_d1"),
        pytest.param(mutual_d2(), 1e4, 1102, id="mutual_linear_d2"),
        pytest.param(HawkesModel.factorized(
            1.0, ExponentialKernel(0.4, 10.0), [1.0, 2.0], [0.5, 0.5]),
            2e4, 1103, id="factorized_exp_base"),
        pytest.param(HawkesModel.linear(
            [1.0, 1.0],
            [[ExponentialKernel(0.3, 8.0), ExponentialKernel(-0.5, 10.0)],
             [ExponentialKernel(-0.4, 12.0), ExponentialKernel(0.35, 6.0)]],
            flavor="positive_part"), 1e4, 1104, id="positive_part_inhibition_d2"),
        pytest.param(POWER_LAW_D1, 1e4, 1105, id="power_law_d1"),
    ])
    def test_compensator_increments_are_unit_exponential(self, model, horizon, seed):
        stream = simulate(model, horizon, seed)
        increments = compensator_increments(model, stream)
        assert len(increments) > 5000
        assert sps.kstest(increments, "expon").pvalue > 0.01

    def test_wrong_model_is_detected(self):
        # the check has power: a stream from a weaker kernel fails it
        weaker = HawkesModel.linear([1.0], [[ExponentialKernel(0.4, 10.0)]])
        stream = simulate(weaker, 2e4, seed=1200)
        increments = compensator_increments(EXP_D1, stream)
        assert sps.kstest(increments, "expon").pvalue < 1e-6
