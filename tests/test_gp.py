import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from abo import algorithms, cli, kernels
from abo import gp as gp_module
from abo.errors import DimensionMismatchError, InvalidObservationError, SingularModelError
from abo.gp import GaussianProcess, chol_with_jitter, factorize
from abo.kernels import (
    KernelSpec,
    cross_gram,
    gram_matrix,
    product_terms,
    sq_distance_by_terms,
)
from abo.objectives import evaluate_objective

# every kernel profile a parametrised test runs under, by nu; see use_profile
PROFILES = pytest.mark.parametrize("nu", [None, 1.5, 2.5], ids=["se-None", "matern-1.5", "matern-2.5"])


def make_gp(noise=0.1, d=1):
    return GaussianProcess(KernelSpec(np.ones(d)), noise)


def read_only(X):
    X = np.array(X, dtype=float)
    X.setflags(write=False)
    return X


def full_passes_over(calls, cand):
    """retained, for each full pass over cand itself, in order."""
    return [retained for Xq, retained in calls if Xq is cand]


def one_pass_reference(gp, Xq):
    """The posterior's steps over every query row, with the distances from
    freshly computed ``product_terms`` rather than the state's cached ones."""
    ls = gp.kernel.lengthscales
    sq = sq_distance_by_terms(Xq, product_terms(gp.X, ls), ls)
    Kx = kernels.profile(sq)
    mean = Kx @ gp._alpha
    V = np.matmul(Kx, gp._L_inv.T, out=sq)
    return mean, np.clip(1.0 - np.einsum("nt,nt->n", V, V), 0.0, 1.0)


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
        with pytest.raises(InvalidObservationError):
            gp.posterior([[np.nan, 0.5]])

    @pytest.mark.parametrize("t", [1, 25, 100])
    @pytest.mark.parametrize("sigma", [0.1, 1e-2, 1e-3])
    @pytest.mark.parametrize("nu", [None, 2.5])
    def test_matches_cross_gram_and_triangular_solve(self, use_profile, nu, sigma, t):
        # the difference-form kernel and one triangular solve per query batch
        use_profile(nu)
        spec = KernelSpec(np.full(3, 0.3))
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
        dtrtrs = gp_module.dtrtrs

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return dtrtrs(*args, **kwargs)

        monkeypatch.setattr(gp_module, "dtrtrs", counting)
        for _ in range(3):
            gp.posterior(rng.uniform(size=(5, 2)))
            gp.posterior_mean_var([0.2, 0.4])
        assert calls == [(10, 10)]

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1280, 4352])
    @PROFILES
    @pytest.mark.parametrize("d", [1, 4])
    def test_blocks_keep_unblocked_bits(self, use_profile, d, nu, n):
        # every query row has the reference's bits, whatever n and t; the name
        # is kept from the row-block days so the test ids stay stable
        use_profile(nu)
        rng = np.random.default_rng(n + d)
        Xq = rng.uniform(size=(n, d))
        kernel = KernelSpec(np.full(d, 0.3))
        for t in (5, 25, 43, 60, 100):
            gp = GaussianProcess(kernel, 0.1, rng.uniform(size=(t, d)), rng.standard_normal(t))
            mean, var = gp.posterior(Xq)
            ref_mean, ref_var = one_pass_reference(gp, Xq)
            assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)
            assert np.all((var >= 0.0) & (var <= 1.0))

    def test_large_query_takes_one_pass(self, monkeypatch):
        rng = np.random.default_rng(3)
        gp = GaussianProcess(
            KernelSpec(np.full(4, 0.3)), 0.1, rng.uniform(size=(100, 4)), rng.standard_normal(100)
        )
        calls = []
        by_terms = kernels.sq_distance_by_terms

        def counting(Xq, *args):
            calls.append(Xq.shape)
            return by_terms(Xq, *args)

        monkeypatch.setattr(kernels, "sq_distance_by_terms", counting)
        gp.posterior(rng.uniform(size=(4352, 4)))
        assert calls == [(4352, 4)]

    def test_variance_clipped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(12, 2))
        gp = GaussianProcess(
            KernelSpec(np.full(2, 0.3)), 0.1, X, rng.standard_normal(12)
        )
        _, var = gp.posterior(rng.uniform(size=(50, 2)))
        assert np.all(var >= 0.0) and np.all(var <= 1.0)


class TestCarriedScan:
    """A read-only candidate set scanned again after add_observation under
    the same kernel is extended by one row of V, not rescanned."""

    @staticmethod
    def five_points(rng):
        X = rng.uniform(size=(5, 2))
        return GaussianProcess(KernelSpec(np.full(2, 0.4)), 0.1, X, rng.standard_normal(5))

    @staticmethod
    def assert_matches_rescan(gp, cand):
        mean, var = gp.posterior(cand)
        ref_mean, ref_var = gp.posterior(cand.copy())
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-10)

    @PROFILES
    @pytest.mark.parametrize("d", [1, 4])
    def test_extension_matches_rescan(self, use_profile, d, nu, full_passes):
        use_profile(nu)
        rng = np.random.default_rng(d)
        cand = read_only(rng.uniform(size=(700, d)))
        gp = GaussianProcess(KernelSpec(np.full(d, 0.3)), 0.1)
        for _ in range(120):
            gp = gp.add_observation(rng.uniform(size=d), rng.standard_normal())
            self.assert_matches_rescan(gp, cand)
        # one full scan, retained by the first child; every later step extends it
        assert full_passes_over(full_passes, cand) == [True]

    def test_two_children_and_a_grandchild(self, full_passes):
        rng = np.random.default_rng(11)
        cand = read_only(rng.uniform(size=(300, 2)))
        gp = self.five_points(rng)
        gp.posterior(cand)
        parent = gp.add_observation([0.5, 0.5], 0.3)
        parent.posterior(cand)  # full and retained
        first = parent.add_observation([0.1, 0.9], -0.2)
        second = parent.add_observation([0.7, 0.2], 1.1)
        self.assert_matches_rescan(first, cand)  # takes the parent's arrays
        self.assert_matches_rescan(second, cand)  # full path, retained
        self.assert_matches_rescan(first.add_observation([0.3, 0.3], 0.5), cand)
        assert full_passes_over(full_passes, cand) == [False, True, True]

    def test_new_lengthscales_and_writable_sets_rescan(self, full_passes):
        rng = np.random.default_rng(12)
        cand = read_only(rng.uniform(size=(300, 2)))
        gp = self.five_points(rng)
        for _ in range(3):
            gp.posterior(cand)
            gp = gp.add_observation(rng.uniform(size=2), rng.standard_normal())
        swapped = gp.set_kernel(KernelSpec([0.2, 0.2]))
        swapped.posterior(cand)
        writable = cand.copy()
        gp.posterior(writable)
        assert full_passes_over(full_passes, cand) == [False, True, False]
        assert full_passes_over(full_passes, writable) == [False]

    def test_returned_arrays_are_copies(self, full_passes):
        rng = np.random.default_rng(13)
        cand = read_only(rng.uniform(size=(300, 2)))
        gp = self.five_points(rng)
        for _ in range(5):
            mean, var = gp.posterior(cand)
            mean[:] = np.nan
            var[:] = -1.0
            # the state's kept scan answers again, unchanged
            self.assert_matches_rescan(gp, cand)
            gp = gp.add_observation(rng.uniform(size=2), rng.standard_normal())
        self.assert_matches_rescan(gp, cand)
        assert full_passes_over(full_passes, cand) == [False, True]

    def test_ucb_under_a_second_beta_makes_no_pass(self, full_passes):
        gp = self.five_points(np.random.default_rng(16))
        cand = algorithms._scan_candidates(2, 0)
        x_low = algorithms.maximize_ucb(gp, 0.01)
        x_high = algorithms.maximize_ucb(gp, 4.0)
        assert not np.array_equal(x_low, x_high)
        assert full_passes_over(full_passes, cand) == [False]

    def test_child_of_unretained_scan_rescans_and_retains(self, full_passes):
        rng = np.random.default_rng(17)
        cand = read_only(rng.uniform(size=(300, 2)))
        gp = self.five_points(rng)
        gp.posterior(cand)  # full; the mean and variance kept, V not
        assert gp._scan.mean is not None and gp._scan.V is None
        child = gp.add_observation([0.4, 0.6], 0.2)
        self.assert_matches_rescan(child, cand)
        assert child._scan.V is not None
        assert full_passes_over(full_passes, cand) == [False, True]

    def test_jittered_child_rescans(self, full_passes):
        # k between the corners underflows to 0 and sigma^2 is lost next to
        # 1, so the repeated corner leaves a zero pivot
        gp = GaussianProcess(KernelSpec(np.full(2, 0.05)), 1e-9, [[0.0, 0.0]], [0.1])
        cand = read_only(np.random.default_rng(14).uniform(size=(300, 2)))
        gp.posterior(cand)
        gp = gp.add_observation([1.0, 1.0], -0.4)
        gp.posterior(cand)  # retained, unjittered
        child = gp.add_observation([1.0, 1.0], -0.4)
        assert gp._jitter == 0.0 and child._jitter > 0.0
        mean, var = child.posterior(cand)
        ref_mean, ref_var = child.posterior(cand.copy())
        assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)
        assert full_passes_over(full_passes, cand) == [False, True, True]

    def test_add_observation_moves_the_scan(self):
        rng = np.random.default_rng(18)
        cand = read_only(rng.uniform(size=(300, 2)))
        gp = self.five_points(rng).add_observation([0.4, 0.6], 0.2)
        gp.posterior(cand)
        scan = gp._scan
        child = gp.add_observation([0.1, 0.3], -0.5)
        assert gp._scan is None and child._scan is scan
        assert scan.V.shape == (7, 300)
        self.assert_matches_rescan(child, cand)

    def test_fixed_kernel_run_scans_fully_at_most_twice(self, full_passes):
        objective = cli.make_objective("synthetic_4d", 0)
        config = algorithms.AlgorithmConfig(variant="fixed_gp_ucb", iterations=12)
        algorithms.run(objective, config)
        cand = algorithms._scan_candidates(4, config.seed)
        assert full_passes_over(full_passes, cand) == [True]


class TestFactorization:
    @pytest.mark.parametrize("t", [1, 2, 30, 100])
    def test_bits_match_scipy_wrappers(self, t):
        rng = np.random.default_rng(t)
        K = gram_matrix(KernelSpec(np.full(2, 0.3)), rng.uniform(size=(t, 2)))
        y = rng.standard_normal(t)
        L, z, alpha, jitter, _ = factorize(K, 0.1, y)
        assert jitter == 0.0
        ref_L = cholesky(K + 0.01 * np.eye(t), lower=True)
        ref_z = solve_triangular(ref_L, y, lower=True)
        ref_alpha = solve_triangular(ref_L.T, ref_z, lower=False)
        assert np.array_equal(L, ref_L) and np.array_equal(z, ref_z)
        assert np.array_equal(alpha, ref_alpha)
        gp = GaussianProcess(KernelSpec(np.full(2, 0.3)), 0.1, rng.uniform(size=(t, 2)), y)
        gp.posterior_mean_var([0.5, 0.5])
        assert np.array_equal(gp._L_inv, solve_triangular(gp._L, np.eye(t), lower=True))

    @pytest.mark.parametrize("singular", [False, True], ids=["unjittered", "escalated"])
    def test_inputs_left_unchanged(self, singular):
        # sigma^2 = 1e-18 is lost next to 1, so the all-ones K needs jitter
        rng = np.random.default_rng(10)
        if singular:
            K, noise = np.ones((4, 4)), 1e-9
        else:
            K, noise = gram_matrix(KernelSpec(np.full(2, 0.3)), rng.uniform(size=(4, 2))), 0.1
        y = rng.standard_normal(4)
        A = K + noise**2 * np.eye(4)
        inputs = (K, A, y)
        before = [a.copy() for a in inputs]
        _, jitter = chol_with_jitter(A)
        *_, factorize_jitter, _ = factorize(K, noise, y)
        assert jitter == factorize_jitter == (1e-10 if singular else 0.0)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)

    def test_jitter_escalates_on_singular_matrix(self):
        A = np.ones((3, 3))
        L, jitter = chol_with_jitter(A)
        assert jitter == 1e-10
        assert np.all(np.triu(L, 1) == 0.0)
        # the factor is of A + 1e-10 I, the first jitter, not of A
        np.testing.assert_allclose(L @ L.T, A + 1e-10 * np.eye(3), rtol=0, atol=1e-15)
        assert np.abs(L @ L.T - A).max() > 5e-11

    def test_indefinite_matrix_raises(self):
        with pytest.raises(SingularModelError):
            chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 3), (5, 5), (3, 1), (5, 0), (5, 4), "y"])
    def test_non_finite_input_raises_value_error(self, where, value):
        rng = np.random.default_rng(9)
        K = gram_matrix(KernelSpec(np.full(2, 0.3)), rng.uniform(size=(6, 2)))
        y = rng.standard_normal(6)
        if where == "y":
            y[2] = value
        else:
            K[where] = K[where[::-1]] = value
        with pytest.raises(ValueError):
            factorize(K, 0.1, y)


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
        # a non-finite input point is no dimension mismatch
        for x in ([np.nan], [np.inf], [-np.inf]):
            with pytest.raises(InvalidObservationError):
                make_gp().add_observation(x, 1.0)
        with pytest.raises(InvalidObservationError):
            GaussianProcess(KernelSpec([1.0, 1.0]), 0.1, [[np.nan, 0.0]], [1.0])
        for y in (np.nan, np.inf):
            with pytest.raises(InvalidObservationError):
                GaussianProcess(KernelSpec([1.0]), 0.1, [[0.0], [0.5]], [1.0, y])
        with pytest.raises(InvalidObservationError):
            evaluate_objective(cli.make_objective("example_rkhs", 0), [np.nan])

    def test_wrong_dimension_rejected_on_any_state(self):
        empty = make_gp(d=2)
        for gp in (empty, empty.add_observation([0.1, 0.2], 1.0)):
            for x in ([0.5], [0.1, 0.2, 0.3]):
                with pytest.raises(DimensionMismatchError):
                    gp.add_observation(x, 1.0)

    def test_constructor_rejects_mismatched_data(self):
        with pytest.raises(ValueError, match="lengths differ"):
            GaussianProcess(KernelSpec([1.0]), 0.1, [[0.0], [0.5]], [1.0])
        with pytest.raises(DimensionMismatchError):
            GaussianProcess(KernelSpec([1.0, 1.0]), 0.1, [[0.0, 0.5, 1.0]], [1.0])

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
        kernel = KernelSpec(np.ones(1))
        gp = GaussianProcess(kernel, 0.1, X, rng.standard_normal(5))
        assert gp.set_kernel(gp.kernel) is gp
        assert gp.set_kernel(KernelSpec(np.ones(1))) is gp
        changed = KernelSpec(kernel.lengthscales / 1.5)
        swapped = gp.set_kernel(changed)
        assert swapped is not gp and swapped.kernel is changed
        assert swapped.log_marginal_likelihood() != gp.log_marginal_likelihood()

    def test_shrinking_lengthscales_raises_variance(self):
        kernel = KernelSpec(np.ones(1))
        gp = GaussianProcess(kernel, 0.1, [[0.0]], [1.0])
        shrunk = gp.set_kernel(KernelSpec(kernel.lengthscales / 2.0))
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
