import numpy as np
import pytest
from scipy.linalg import solve_triangular

from abo import gp as gp_module
from abo.errors import DimensionMismatchError, InvalidObservationError
from abo.gp import GaussianProcess
from abo.kernels import KernelSpec, cross_gram, gram_matrix


def make_gp(noise=0.1, d=1):
    return GaussianProcess(KernelSpec(np.ones(d)), noise)


class TestPosterior:
    def test_prior(self):
        mean, var = make_gp().posterior_mean_var([0.3])
        assert mean == 0.0 and var == 1.0

    def test_single_observation_closed_form(self):
        gp = make_gp().add_observation([0.0], 1.0)
        mean, var = gp.posterior_mean_var([0.0])
        assert mean == pytest.approx(1 / 1.01, abs=1e-10)
        assert var == pytest.approx(1 - 1 / 1.01, abs=1e-10)

    def test_far_query_reverts_to_prior(self):
        gp = make_gp().add_observation([0.0], 1.0)
        mean, var = gp.posterior_mean_var([10.0])
        assert abs(mean) < 1e-8
        assert var == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_solve(self):
        # direct (K + s^2 I)^{-1} reference implementation
        rng = np.random.default_rng(0)
        for trial in range(30):
            d = rng.integers(1, 4)
            t = rng.integers(1, 16)
            sigma = rng.uniform(0.05, 0.5)
            spec = KernelSpec(rng.uniform(0.2, 1.5, size=d))
            X = rng.uniform(size=(t, d))
            y = rng.standard_normal(t)
            gp = GaussianProcess(spec, sigma, X, y)
            Xq = rng.uniform(size=(5, d))
            mean, var = gp.posterior(Xq)
            K = gram_matrix(spec, X) + sigma**2 * np.eye(t)
            Kinv = np.linalg.inv(K)
            kq = cross_gram(spec, Xq, X)
            np.testing.assert_allclose(mean, kq @ Kinv @ y, atol=1e-8)
            np.testing.assert_allclose(
                var, 1.0 - np.einsum("qt,tu,qu->q", kq, Kinv, kq), atol=1e-8
            )

    @pytest.mark.parametrize("t", [0, 4])
    def test_rejects_bad_queries(self, t):
        rng = np.random.default_rng(t)
        gp = GaussianProcess(
            KernelSpec([0.3, 0.3]), 0.1, rng.uniform(size=(t, 2)), rng.standard_normal(t)
        )
        with pytest.raises(DimensionMismatchError):
            gp.posterior(np.zeros((3, 5)))
        with pytest.raises(DimensionMismatchError):
            gp.posterior([[np.nan, 0.5]])

    @pytest.mark.parametrize("t", [1, 25, 100])
    @pytest.mark.parametrize("sigma", [0.1, 1e-2, 1e-3])
    @pytest.mark.parametrize("nu", [None, 2.5])
    def test_matches_cross_gram_and_triangular_solve(self, nu, sigma, t):
        # the difference-form kernel and one triangular solve per query batch
        family = "matern" if nu else "se"
        spec = KernelSpec(np.full(3, 0.3), family, nu)
        rng = np.random.default_rng(t)
        X = rng.uniform(size=(t, 3))
        gp = GaussianProcess(spec, sigma, X, rng.standard_normal(t))
        Xq = np.vstack([rng.uniform(size=(200, 3)), X])
        mean, var = gp.posterior(Xq)
        Kx = cross_gram(spec, Xq, X)
        V = solve_triangular(gp._L, Kx.T, lower=True)
        ref_var = np.clip(1.0 - np.einsum("tn,tn->n", V, V), 0.0, 1.0)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-13)
        alpha_l1 = np.abs(gp._alpha).sum()
        np.testing.assert_allclose(mean, Kx @ gp._alpha, rtol=0, atol=1e-13 * alpha_l1)

    def test_inverse_factor_built_once_per_state(self, monkeypatch):
        rng = np.random.default_rng(2)
        gp = GaussianProcess(
            KernelSpec(np.full(2, 0.3)), 0.1, rng.uniform(size=(10, 2)), rng.standard_normal(10)
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return solve_triangular(*args, **kwargs)

        monkeypatch.setattr(gp_module, "solve_triangular", counting)
        for _ in range(3):
            gp.posterior(rng.uniform(size=(5, 2)))
            gp.posterior_mean_var([0.2, 0.4])
        assert calls == [(10, 10)]

    def test_variance_clipped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(12, 2))
        gp = GaussianProcess(
            KernelSpec(np.full(2, 0.3)), 0.1, X, rng.standard_normal(12)
        )
        _, var = gp.posterior(rng.uniform(size=(50, 2)))
        assert np.all(var >= 0.0) and np.all(var <= 1.0)


class TestUpdates:
    def test_add_to_empty(self):
        gp = make_gp().add_observation([0.0], 1.0)
        assert gp.num_observations == 1

    def test_duplicate_inputs_stay_nonsingular(self):
        gp = make_gp()
        gp = gp.add_observation([0.5], 1.0).add_observation([0.5], 0.8)
        mean, var = gp.posterior_mean_var([0.5])
        assert np.isfinite(mean) and np.isfinite(var)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(8, 2))
        y = rng.standard_normal(8)
        spec = KernelSpec(np.array([0.5, 0.8]))
        seq = GaussianProcess(spec, 0.1)
        for xi, yi in zip(X, y):
            seq = seq.add_observation(xi, yi)
        batch = GaussianProcess(spec, 0.1, X, y)
        Xq = rng.uniform(size=(10, 2))
        m1, v1 = seq.posterior(Xq)
        m2, v2 = batch.posterior(Xq)
        np.testing.assert_allclose(m1, m2, atol=1e-8)
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_non_finite_observation_rejected(self):
        with pytest.raises(InvalidObservationError):
            make_gp().add_observation([0.0], np.nan)
        with pytest.raises(InvalidObservationError):
            make_gp().add_observation([0.0], np.inf)

    def test_immutability(self):
        gp = make_gp()
        gp.add_observation([0.0], 1.0)
        assert gp.num_observations == 0

    def test_variance_shrinks_with_data(self):
        rng = np.random.default_rng(3)
        gp = make_gp(d=2)
        Xq = rng.uniform(size=(20, 2))
        _, var_prev = gp.posterior(Xq)
        for _ in range(6):
            gp = gp.add_observation(rng.uniform(size=2), rng.standard_normal())
            _, var = gp.posterior(Xq)
            assert np.all(var <= var_prev + 1e-9)
            var_prev = var


class TestSetKernel:
    def test_same_kernel_is_identity(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(5, 1))
        kernel = KernelSpec(np.ones(1), family="matern", nu=2.5)
        gp = GaussianProcess(kernel, 0.1, X, rng.standard_normal(5))
        assert gp.set_kernel(gp.kernel) is gp
        assert gp.set_kernel(kernel.with_lengthscales(np.ones(1))) is gp
        changes = (
            kernel.with_lengthscales(kernel.lengthscales / 1.5),
            KernelSpec(np.ones(1), family="matern", nu=1.5),
            KernelSpec(np.ones(1)),
        )
        for changed in changes:
            swapped = gp.set_kernel(changed)
            assert swapped is not gp and swapped.kernel is changed
            assert swapped.log_marginal_likelihood() != gp.log_marginal_likelihood()

    def test_shrinking_lengthscales_raises_variance(self):
        kernel = KernelSpec(np.ones(1))
        gp = GaussianProcess(kernel, 0.1, [[0.0]], [1.0])
        shrunk = gp.set_kernel(kernel.with_lengthscales(kernel.lengthscales / 2.0))
        for x in (0.2, 0.5, 1.0):
            _, v_wide = gp.posterior_mean_var([x])
            _, v_narrow = shrunk.posterior_mean_var([x])
            assert v_narrow > v_wide

    def test_empty_state_swap(self):
        gp = make_gp().set_kernel(KernelSpec(np.array([0.5])))
        assert gp.num_observations == 0
        assert gp.kernel.lengthscales[0] == 0.5


class TestMutualInformation:
    def test_empty(self):
        assert make_gp().mutual_information() == 0.0

    def test_single_point(self):
        gp = make_gp().add_observation([0.0], 1.0)
        assert gp.mutual_information() == pytest.approx(
            0.5 * np.log(101), abs=1e-9
        )

    def test_two_identical_inputs(self):
        gp = make_gp().add_observation([0.0], 1.0).add_observation([0.0], -1.0)
        assert gp.mutual_information() == pytest.approx(
            0.5 * np.log(201), abs=1e-9
        )

    def test_matches_explicit_determinant(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            t = rng.integers(1, 11)
            sigma = rng.uniform(0.05, 0.5)
            spec = KernelSpec(rng.uniform(0.3, 1.0, size=2))
            X = rng.uniform(size=(t, 2))
            gp = GaussianProcess(spec, sigma, X, rng.standard_normal(t))
            K = gram_matrix(spec, X)
            direct = 0.5 * np.linalg.slogdet(np.eye(t) + K / sigma**2)[1]
            assert gp.mutual_information() == pytest.approx(direct, abs=1e-9)

    def test_independent_of_observations(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(6, 1))
        spec = KernelSpec(np.array([0.4]))
        a = GaussianProcess(spec, 0.1, X, rng.standard_normal(6))
        b = GaussianProcess(spec, 0.1, X, rng.standard_normal(6) * 100)
        assert a.mutual_information() == b.mutual_information()

    def test_monotone_in_data(self):
        rng = np.random.default_rng(7)
        gp = make_gp(d=2)
        prev = 0.0
        for _ in range(10):
            gp = gp.add_observation(rng.uniform(size=2), rng.standard_normal())
            mi = gp.mutual_information()
            assert mi >= prev - 1e-10
            prev = mi


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        gp = make_gp().add_observation([0.0], 0.0)
        expect = -0.5 * np.log(1.01) - 0.5 * np.log(2 * np.pi)
        assert gp.log_marginal_likelihood() == pytest.approx(expect, abs=1e-6)

    def test_single_unit_observation(self):
        gp = make_gp().add_observation([0.0], 1.0)
        expect = -0.5 / 1.01 - 0.5 * np.log(1.01) - 0.5 * np.log(2 * np.pi)
        assert gp.log_marginal_likelihood() == pytest.approx(expect, abs=1e-6)

    def test_matches_dense_gaussian_density(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(7, 1))
        y = rng.standard_normal(7)
        spec = KernelSpec(np.array([0.7]))
        gp = GaussianProcess(spec, 0.2, X, y)
        K = gram_matrix(spec, X) + 0.04 * np.eye(7)
        sign, logdet = np.linalg.slogdet(K)
        expect = -0.5 * (y @ np.linalg.solve(K, y) + logdet + 7 * np.log(2 * np.pi))
        assert gp.log_marginal_likelihood() == pytest.approx(expect, abs=1e-8)
