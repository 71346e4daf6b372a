import numpy as np
import pytest

from abo.errors import DimensionMismatchError, InvalidSpecError
from abo.kernels import (
    KernelSpec,
    cross_gram,
    gram_matrix,
    product_terms,
    rkhs_norm_of_expansion,
    sq_distance_by_terms,
)


def se(*ls):
    return KernelSpec(lengthscales=np.asarray(ls, dtype=float))


def evaluate(spec, x, x2):
    """Scalar kernel value k(x, x2), from a 1 x 1 ``cross_gram``."""
    return float(cross_gram(spec, np.atleast_2d(x), np.atleast_2d(x2))[0, 0])


class TestEvaluate:
    def test_unit_diagonal(self):
        assert evaluate(se(1.0), [0.0], [0.0]) == 1.0

    def test_se_unit_distance(self):
        assert evaluate(se(1.0), [0.0], [1.0]) == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )

    def test_se_short_lengthscale(self):
        # scaled distance 2, exp(-0.5 * 4)
        assert evaluate(se(0.5), [0.0], [1.0]) == pytest.approx(
            np.exp(-2.0), abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in (se(0.3, 1.2), se(0.5, 2.0), se(1.0, 1.0)):
            for _ in range(20):
                x, x2 = rng.uniform(size=2), rng.uniform(size=2)
                assert evaluate(spec, x, x2) == pytest.approx(
                    evaluate(spec, x2, x), abs=1e-14
                )

    def test_lengthscale_monotonicity(self):
        x, x2 = np.array([0.1, 0.3]), np.array([0.7, 0.9])
        prev = -np.inf
        for ls in (0.1, 0.3, 1.0, 3.0):
            val = evaluate(se(ls, ls), x, x2)
            assert val >= prev
            prev = val

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(se(1.0, 1.0), [0.0], [0.0])

    def test_invalid_lengthscale(self):
        with pytest.raises(InvalidSpecError):
            se(-1.0)
        with pytest.raises(InvalidSpecError):
            se(0.0)

    def test_spec_does_not_freeze_callers_array(self):
        ls = np.array([1.0, 2.0])
        KernelSpec(lengthscales=ls)
        ls[0] = 5.0  # caller's array stays writable


class TestGramMatrix:
    def test_empty(self):
        assert gram_matrix(se(1.0), np.zeros((0, 1))).shape == (0, 0)

    def test_single_point(self):
        K = gram_matrix(se(1.0), [[0.0]])
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_two_points(self):
        K = gram_matrix(se(1.0), [[0.0], [1.0]])
        expect = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
        np.testing.assert_allclose(K, expect, atol=1e-12)

    def test_psd_random_sets(self):
        rng = np.random.default_rng(1)
        for spec in (se(0.2, 0.7, 1.5), se(0.5)):
            d = spec.dim
            for n in (2, 7, 20):
                X = rng.uniform(size=(n, d))
                K = gram_matrix(spec, X) + 1e-10 * np.eye(n)
                assert np.linalg.eigvalsh(K).min() >= -1e-12

    def test_symmetric_exact(self):
        # nothing symmetrizes the Gram matrix before it is factorized, so
        # the difference form must give symmetry and a unit diagonal bit for bit
        rng = np.random.default_rng(2)
        for d in range(1, 6):
            for ell in (1e-3, 0.1, 1.0, 100.0):
                X = rng.uniform(size=(40, d))
                X = np.vstack([X, X[:5]])[rng.permutation(45)]  # repeated rows
                K = gram_matrix(KernelSpec(np.full(d, ell)), X)
                assert np.array_equal(K, K.T)
                assert np.all(np.diag(K) == 1.0)


class TestCrossGram:
    def test_matches_pairwise_evaluate(self):
        rng = np.random.default_rng(3)
        X, X2 = rng.uniform(size=(4, 2)), rng.uniform(size=(5, 2))
        spec = se(0.6, 1.1)
        G = cross_gram(spec, X, X2)
        for i in range(4):
            for j in range(5):
                assert G[i, j] == pytest.approx(
                    evaluate(spec, X[i], X2[j]), abs=1e-14
                )


class TestSqDistanceByProduct:
    # rounding of |a|^2 + |b|^2 - 2 a.b grows as d * eps / l^2
    @pytest.mark.parametrize("ls, tol", [(1.0, 1e-12), (0.3, 1e-12), (0.1, 1e-12), (0.01, 1e-10)])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    # the product-form distances must serve any stationary profile, see use_profile
    @pytest.mark.parametrize("nu", [None, 1.5, 2.5])
    def test_agrees_with_difference_form(self, use_profile, nu, d, ls, tol):
        profile = use_profile(nu)
        spec = se(*[ls] * d)
        rng = np.random.default_rng(d)
        X = rng.uniform(size=(40, d))
        Q = np.vstack([rng.uniform(size=(100, d)), X])  # ends with copies of X
        sq = sq_distance_by_terms(Q, product_terms(X, spec.lengthscales), spec.lengthscales)
        assert np.all(sq >= 0.0)
        np.testing.assert_allclose(profile(sq), cross_gram(spec, Q, X), rtol=0, atol=tol)
        # not exactly 0: a.a from the product and from the norms round apart
        np.testing.assert_allclose(np.diag(sq[100:]), 0.0, rtol=0, atol=tol)


class TestRkhsNorm:
    def test_single_unit_weight(self):
        assert rkhs_norm_of_expansion(se(1.0), [[0.0]], [1.0]) == 1.0

    def test_single_weight_scales_linearly(self):
        for B in (0.25, 2.0, 4.0):
            assert rkhs_norm_of_expansion(se(1.0), [[0.5]], [B]) == pytest.approx(
                B, abs=1e-12
            )

    def test_two_centers(self):
        val = rkhs_norm_of_expansion(se(1.0), [[0.0], [1.0]], [1.0, 1.0])
        assert val == pytest.approx(np.sqrt(2 + 2 * np.exp(-0.5)), abs=1e-9)

    def test_mismatched_weights(self):
        with pytest.raises(DimensionMismatchError):
            rkhs_norm_of_expansion(se(1.0), [[0.0]], [1.0, 2.0])

    def test_tiny_negative_quadratic_form_clamps(self):
        # near-duplicate centers with cancelling weights drive w'Kw to
        # rounding-level values; the norm must come back as a real >= 0
        centers = [[0.0], [1e-9]]
        val = rkhs_norm_of_expansion(se(1.0), centers, [1.0, -1.0])
        assert val >= 0.0


class TestNormShrinkInequality:
    def test_grid_interpolant_norm_bound(self, interpolant_norm):
        # shortening lengthscales by c grows the norm by at most c^(d/2)
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 200)[:, None]
        for trial in range(5):
            centers = rng.uniform(size=(8, 1))
            weights = rng.standard_normal(8)
            theta = rng.uniform(0.2, 0.5)
            spec = se(theta)
            f_grid = cross_gram(spec, grid, centers) @ weights
            n_theta = interpolant_norm(spec, grid, f_grid)
            for c in (1.5, 2.0, 4.0):
                n_shrunk = interpolant_norm(
                    KernelSpec(spec.lengthscales / c), grid, f_grid
                )
                assert n_shrunk <= c ** 0.5 * n_theta + 1e-6


class TestSpecHelpers:
    def test_dim(self):
        assert se(1.0, 1.0, 1.0).dim == 3
