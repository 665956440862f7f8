import hashlib
import json

import numpy as np
import pytest

from hawkesflow.errors import StabilityError
from hawkesflow.simulate import (
    ExponentialKernel,
    HawkesModel,
    ModelFlavor,
    PowerLawKernel,
    SumOfExponentialsKernel,
    TabulatedKernel,
    ZeroKernel,
    kernel_from_dict,
    load_model,
    mean_intensity,
    save_model,
    spectral_radius,
)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius([[0.3, 0.0], [0.0, 0.5]]) == pytest.approx(0.5)

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_symmetric_hand_checked(self):
        # eigenvalues 0.4 +/- 0.2 via the characteristic polynomial
        assert spectral_radius([[0.4, 0.2], [0.2, 0.4]]) == pytest.approx(
            0.6, rel=1e-9)

    def test_three_cycle_hand_checked(self):
        # a^3 = 0.9 * 0.2 * 0.5 * I, so every eigenvalue has modulus
        # 0.09 ** (1/3); power iteration rotates forever on this matrix
        a = [[0.0, 0.9, 0.0], [0.0, 0.0, 0.2], [0.5, 0.0, 0.0]]
        assert spectral_radius(a) == pytest.approx(0.09 ** (1 / 3), rel=1e-12)

    def test_agrees_with_dense_eigensolver_on_random_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.0, 1.0, size=(5, 5))
            rho = spectral_radius(a)
            expected = float(np.max(np.abs(np.linalg.eigvals(a))))
            assert rho == pytest.approx(expected, rel=1e-8)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            spectral_radius([[np.inf, 0.0], [0.0, 0.0]])


class TestMeanIntensity:
    def test_scalar_formula(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        assert mean_intensity(model)[0] == pytest.approx(2.0)

    def test_poisson_case(self):
        model = HawkesModel.linear(
            [1.0, 1.0], [[ZeroKernel(), ZeroKernel()],
                         [ZeroKernel(), ZeroKernel()]])
        assert np.allclose(mean_intensity(model), [1.0, 1.0])

    def test_two_by_two_hand_elimination(self):
        # (I - N) Lambda = mu with N = [[.2,.3],[.4,.1]], mu = (1, 0):
        # det = .8*.9 - .3*.4 = 0.6; Lambda = (0.9/0.6, 0.4/0.6) = (1.5, 2/3)
        model = HawkesModel.linear(
            [1.0, 0.0],
            [[ExponentialKernel(0.2, 5.0), ExponentialKernel(0.3, 5.0)],
             [ExponentialKernel(0.4, 5.0), ExponentialKernel(0.1, 5.0)]])
        lam = mean_intensity(model)
        assert lam == pytest.approx([1.5, 2.0 / 3.0], rel=1e-12)

    def test_unstable_model_raises(self):
        with pytest.raises(StabilityError):
            mean_intensity(HawkesModel.linear(
                [1.0], [[ExponentialKernel(1.1, 3.0)]]))


class TestKernels:
    def test_exponential_norm_and_causality(self):
        k = ExponentialKernel(0.5, 10.0)
        assert k.norm() == pytest.approx(0.5)
        assert k.value(0.0) == pytest.approx(5.0)
        assert k.value(-1e-9) == 0.0
        t = np.linspace(0, k.support(1e-10), 200001)
        assert np.trapezoid(k.value(t), t) == pytest.approx(0.5, rel=1e-6)

    def test_sum_of_exponentials(self):
        k = SumOfExponentialsKernel(((0.2, 5.0), (-0.1, 20.0)))
        assert k.norm() == pytest.approx(0.1)
        assert k.positive_norm() > 0.1
        assert k.value(np.array([-1.0]))[0] == 0.0

    def test_power_law_norm(self):
        k = PowerLawKernel(c=0.1, gamma=1.5, t0=0.01)
        assert k.norm() == pytest.approx(0.1 * 0.01 ** -0.5 / 0.5)
        assert k.upper_bound_from_vec(np.array([1.0]))[0] == pytest.approx(k.value(1.0))

    def test_tabulated_interp_and_norm(self):
        k = TabulatedKernel((0.0, 1.0, 2.0), (1.0, 1.0, 0.0))
        assert k.norm() == pytest.approx(1.5)
        assert k.value(0.5) == pytest.approx(1.0)
        assert k.value(1.5) == pytest.approx(0.5)
        assert k.value(2.5) == 0.0
        assert k.positive_norm() == pytest.approx(1.5)
        # maxima of piecewise-linear segments sit on grid points
        assert k.upper_bound_from_vec(np.array([1.5]))[0] >= k.value(1.5)

    def test_tabulated_bound_is_sup_over_later_lags(self):
        # a kernel that rises, dips below zero and peaks again
        k = TabulatedKernel((0.0, 0.5, 1.0, 1.5, 2.0, 3.0),
                            (0.2, 1.0, -0.3, 0.6, 0.1, 0.0))
        taus = np.array([-1.0, 0.0, 0.25, 0.5, 0.7, 1.0, 1.2, 1.5, 1.9, 2.5, 3.0, 4.0])
        fine = np.linspace(0.0, 3.0, 30001)
        sup = [max(float(np.max(k.value(fine[fine >= max(tau, 0.0)]), initial=0.0)), 0.0)
               for tau in taus]
        bounds = k.upper_bound_from_vec(taus)
        assert np.allclose(bounds, sup, atol=1e-12)

    def test_kernel_dict_roundtrip(self):
        kernels = [ZeroKernel(), ExponentialKernel(0.3, 7.0),
                   SumOfExponentialsKernel(((0.1, 2.0), (0.2, 9.0))),
                   PowerLawKernel(0.05, 2.0, 0.02),
                   TabulatedKernel((0.0, 0.5), (1.0, 0.0))]
        for k in kernels:
            again = kernel_from_dict(k.to_dict())
            assert again == k


class TestExponentialFamily:
    def test_zero_and_exponential_are_sums_of_exponentials(self):
        assert ZeroKernel() == SumOfExponentialsKernel(())
        assert ExponentialKernel(0.3, 7.0) == SumOfExponentialsKernel(((0.3, 7.0),))

    def test_one_term_sum_loads_as_exponential(self):
        k = kernel_from_dict({"type": "sum_of_exponentials",
                              "terms": [[0.3, 7.0]]})
        assert k == ExponentialKernel(0.3, 7.0)
        assert k.to_dict() == {"type": "exponential", "alpha": 0.3, "beta": 7.0}

    def test_empty_sum_is_the_zero_kernel(self):
        k = kernel_from_dict({"type": "sum_of_exponentials", "terms": []})
        assert k.to_dict() == {"type": "zero"}
        assert k.norm() == k.positive_norm() == k.support() == 0.0
        assert k.nonnegative()
        assert np.array_equal(k.value([-1.0, 0.0, 2.0]), np.zeros(3))
        assert np.array_equal(k.upper_bound_from_vec([0.0, 2.0]), np.zeros(2))

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.0), (0.5, -2.0)])
    def test_nonpositive_beta_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            ExponentialKernel(alpha, beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            SumOfExponentialsKernel(((0.2, 3.0), (alpha, beta)))

    def test_single_sign_terms_skip_the_quadrature(self):
        k = SumOfExponentialsKernel(((-0.2, 3.0), (-0.1, 9.0)))
        assert k.positive_norm() == 0.0
        assert not k.nonnegative()
        assert not ExponentialKernel(-1e-15, 1.0).nonnegative()


# to_dict() and content_hash() of each model kind, pinned so that existing
# model files keep their bytes and their hashes.
PINNED_MODELS = {
    "zero": (
        lambda: HawkesModel.linear([1.0, 2.0], [[ZeroKernel(), ZeroKernel()],
                                                [ZeroKernel(), ZeroKernel()]]),
        "1ed5d26260332e78",
        {"dimension": 2, "flavor": "linear", "baseline": [1.0, 2.0],
         "kernels": [[{"type": "zero"}, {"type": "zero"}],
                     [{"type": "zero"}, {"type": "zero"}]]}),
    "exponential": (
        lambda: HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]]),
        "b8dbb7310c06a3a7",
        {"dimension": 1, "flavor": "linear", "baseline": [1.0],
         "kernels": [[{"type": "exponential", "alpha": 0.5, "beta": 10.0}]]}),
    "sum_of_exponentials": (
        lambda: HawkesModel.linear(
            [1.0], [[SumOfExponentialsKernel(((0.2, 5.0), (0.3, 40.0)))]]),
        "c36a0d7c888aec5f",
        {"dimension": 1, "flavor": "linear", "baseline": [1.0],
         "kernels": [[{"type": "sum_of_exponentials",
                       "terms": [[0.2, 5.0], [0.3, 40.0]]}]]}),
    "power_law": (
        lambda: HawkesModel.linear([0.5], [[PowerLawKernel(0.002, 2.0, 0.01)]]),
        "1c55cc4023be5ed8",
        {"dimension": 1, "flavor": "linear", "baseline": [0.5],
         "kernels": [[{"type": "power_law", "c": 0.002, "gamma": 2.0,
                       "t0": 0.01}]]}),
    "tabulated": (
        lambda: HawkesModel.linear(
            [1.0], [[TabulatedKernel((0.0, 0.1, 0.5), (2.0, 1.0, 0.0))]]),
        "4cbbd2e3c6cc1f1a",
        {"dimension": 1, "flavor": "linear", "baseline": [1.0],
         "kernels": [[{"type": "tabulated", "grid": [0.0, 0.1, 0.5],
                       "values": [2.0, 1.0, 0.0]}]]}),
    "factorized": (
        lambda: HawkesModel.factorized(2.0, ExponentialKernel(0.3, 8.0),
                                       [1.0, 1.5, 2.0], [0.5, 0.3, 0.2]),
        "a76d974680dd3297",
        {"dimension": 3, "flavor": "factorized", "baseline_total": 2.0,
         "base_kernel": {"type": "exponential", "alpha": 0.3, "beta": 8.0},
         "mark_values": [1.0, 1.5, 2.0], "mark_probs": [0.5, 0.3, 0.2]}),
}


# sha256 prefixes of the files save_model writes for PINNED_MODELS
PINNED_FILES = {
    "exponential": "baf27bceb5d7d25f",
    "factorized": "4183c927d095d403",
    "power_law": "dee699f9dcf401d1",
    "sum_of_exponentials": "bfacf68193f349d4",
    "tabulated": "ac731ff52a4fc7af",
    "zero": "a333ddc8c540bcec",
}

# each PINNED_MODELS law built with integer parameters where it has them
INT_BUILT = {
    "exponential": (
        lambda: HawkesModel.linear([1], [[ExponentialKernel(1, 5)]]),
        lambda: HawkesModel.linear([1.0], [[ExponentialKernel(1.0, 5.0)]])),
    "sum_of_exponentials": (
        lambda: HawkesModel.linear(
            [1], [[SumOfExponentialsKernel(((1, 5), (-1, 40)))]],
            flavor="positive_part"),
        lambda: HawkesModel.linear(
            [1.0], [[SumOfExponentialsKernel(((1.0, 5.0), (-1.0, 40.0)))]],
            flavor="positive_part")),
    "power_law": (
        lambda: HawkesModel.linear([1], [[PowerLawKernel(1, 2, 1)]]),
        lambda: HawkesModel.linear([1.0], [[PowerLawKernel(1.0, 2.0, 1.0)]])),
    "tabulated": (
        lambda: HawkesModel.linear(
            [1], [[TabulatedKernel((0, 1, 2), (1, 0, 0))]]),
        lambda: HawkesModel.linear(
            [1.0], [[TabulatedKernel((0.0, 1.0, 2.0), (1.0, 0.0, 0.0))]])),
    "factorized": (
        lambda: HawkesModel.factorized(2, ExponentialKernel(1, 8), [1, 2],
                                       [0.5, 0.5]),
        lambda: HawkesModel.factorized(2.0, ExponentialKernel(1.0, 8.0),
                                       [1.0, 2.0], [0.5, 0.5])),
}


class TestPinnedSerialization:
    @pytest.mark.parametrize("name", sorted(PINNED_MODELS))
    def test_to_dict_and_content_hash(self, name):
        build, digest, spec = PINNED_MODELS[name]
        model = build()
        assert model.to_dict() == spec
        assert model.content_hash() == digest
        assert HawkesModel.from_dict(spec).content_hash() == digest

    @pytest.mark.parametrize("name", sorted(PINNED_FILES))
    def test_model_file_bytes(self, name, tmp_path):
        path = tmp_path / "model.json"
        save_model(PINNED_MODELS[name][0](), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == PINNED_FILES[name]

    @pytest.mark.parametrize("name", sorted(INT_BUILT))
    def test_integer_parameters_serialize_as_floats(self, name, tmp_path):
        from_ints, from_floats = (build() for build in INT_BUILT[name])
        assert from_ints.to_dict() == from_floats.to_dict()
        assert json.dumps(from_ints.to_dict()) == json.dumps(from_floats.to_dict())
        assert from_ints.content_hash() == from_floats.content_hash()
        save_model(from_ints, tmp_path / "ints.json")
        save_model(from_floats, tmp_path / "floats.json")
        assert ((tmp_path / "ints.json").read_bytes()
                == (tmp_path / "floats.json").read_bytes())


class TestHawkesModel:
    def test_linear_flavor_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            HawkesModel.linear([1.0], [[ExponentialKernel(-0.5, 10.0)]])

    def test_positive_part_accepts_negative_norms(self):
        model = HawkesModel.linear([1.0], [[ExponentialKernel(-0.5, 10.0)]],
                                   flavor="positive_part")
        assert model.flavor is ModelFlavor.POSITIVE_PART
        assert model.is_stable()

    def test_factorized_effective_kernels(self):
        model = HawkesModel.factorized(
            baseline_total=1.0, base_kernel=ExponentialKernel(0.4, 10.0),
            mark_values=[1.0, 2.0], mark_probs=[0.5, 0.5])
        norms = model.norm_matrix()
        assert np.allclose(norms, [[0.2, 0.4], [0.2, 0.4]])
        assert np.allclose(model.baseline, [0.5, 0.5])
        # rank-one matrix: spectral radius is the trace of p f^T scaled
        assert model.branching_radius() == pytest.approx(0.6, rel=1e-8)

    def test_model_file_roundtrip(self, tmp_path):
        model = HawkesModel.linear(
            [1.0, 0.5],
            [[ExponentialKernel(0.2, 5.0), ZeroKernel()],
             [PowerLawKernel(0.01, 2.0, 0.05), ExponentialKernel(0.1, 3.0)]])
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.to_dict() == model.to_dict()
        assert np.array_equal(again.baseline, model.baseline)

    def test_factorized_file_roundtrip(self, tmp_path):
        model = HawkesModel.factorized(
            2.0, ExponentialKernel(0.3, 8.0), [1.0, 1.5, 2.0],
            [0.5, 0.25, 0.25])
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.to_dict() == model.to_dict()

    def test_content_hash_tracks_parameters(self):
        m1 = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        m2 = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.1)]])
        assert m1.content_hash() != m2.content_hash()
        assert m1.content_hash() == HawkesModel.from_dict(m1.to_dict()).content_hash()


class TestNonFiniteBaseline:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_linear_model_file_rejected(self, literal):
        text = ('{"dimension": 2, "flavor": "linear", "baseline": [1.0, %s],'
                ' "kernels": [[{"type": "zero"}, {"type": "zero"}],'
                ' [{"type": "zero"}, {"type": "zero"}]]}' % literal)
        with pytest.raises(ValueError, match="baseline rates must be finite"):
            HawkesModel.from_dict(json.loads(text))

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_factorized_total_rejected(self, total):
        with pytest.raises(ValueError, match="baseline rates must be finite"):
            HawkesModel.factorized(total, ExponentialKernel(0.3, 8.0),
                                   [1.0, 2.0], [0.5, 0.5])


class TestNonFiniteKernelParameters:
    @pytest.mark.parametrize("alpha, beta", [
        (0.5, float("inf")), (0.5, float("nan")), (float("inf"), 2.0),
        (float("-inf"), 2.0), (float("nan"), 2.0)])
    def test_exponential_kernels_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            ExponentialKernel(alpha, beta)
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            SumOfExponentialsKernel(((0.2, 3.0), (alpha, beta)))

    @pytest.mark.parametrize("spec", [
        '{"type": "exponential", "alpha": 0.5, "beta": Infinity}',
        '{"type": "exponential", "alpha": NaN, "beta": 2.0}',
        '{"type": "sum_of_exponentials", "terms": [[0.2, 3.0], [0.1, Infinity]]}'])
    def test_model_file_literals_rejected(self, spec):
        # json accepts the Infinity and NaN literals
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            kernel_from_dict(json.loads(spec))


class TestPointwiseNonnegativity:
    def test_mixed_sign_sum_rejected_as_linear(self):
        # norm is positive but the kernel dips below zero near the origin
        k = SumOfExponentialsKernel(((0.3, 5.0), (-0.1, 50.0)))
        assert k.norm() > 0
        assert not k.nonnegative()
        with pytest.raises(ValueError, match="negative values"):
            HawkesModel.linear([1.0], [[k]])
        model = HawkesModel.linear([1.0], [[k]], flavor="positive_part")
        assert model.is_stable()

    def test_single_sign_kernels_pass(self):
        for k in (ZeroKernel(), ExponentialKernel(0.2, 3.0),
                  PowerLawKernel(0.01, 2.0, 0.05),
                  TabulatedKernel((0.0, 1.0), (0.5, 0.0)),
                  SumOfExponentialsKernel(((0.1, 2.0), (0.2, 9.0)))):
            assert k.nonnegative()
