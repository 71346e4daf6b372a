import logging
import math

import numpy as np
import pytest

from abo import gp as gp_module
from abo import hyperparam
from abo.errors import SingularModelError
from abo.gp import GaussianProcess
from abo.hyperparam import (
    LengthscalePrior,
    _log_posterior,
    combine_max,
    combine_scale,
    map_estimate,
)
from abo.kernels import KernelSpec, cross_gram


class TestPrior:
    def test_mode(self):
        assert LengthscalePrior(shape=2.0, rate=10.0).mode == pytest.approx(0.1)
        assert LengthscalePrior(shape=1.0, rate=10.0).mode == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LengthscalePrior(shape=0.0, rate=1.0)
        with pytest.raises(ValueError):
            LengthscalePrior(shape=1.0, rate=-1.0)

    def test_log_density_peaks_at_mode(self):
        prior = LengthscalePrior(shape=2.0, rate=10.0)
        at_mode = prior.log_density(np.array([prior.mode]))
        assert at_mode > prior.log_density(np.array([0.01]))
        assert at_mode > prior.log_density(np.array([1.0]))


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1, [[0.0]], [0.0])
        assert gp.log_marginal_likelihood() == pytest.approx(
            -0.5 * np.log(1.01) - 0.5 * np.log(2 * np.pi), abs=1e-6
        )

    def test_single_unit_observation(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1, [[0.0]], [1.0])
        expect = -0.5 / 1.01 - 0.5 * np.log(1.01) - 0.5 * np.log(2 * np.pi)
        assert gp.log_marginal_likelihood() == pytest.approx(expect, abs=1e-6)


def sample_from(theta, n, seed, noise=0.05):
    """Noisy draws of a function with known lengthscale."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec(np.atleast_1d(theta))
    centers = rng.uniform(size=(8, spec.dim))
    weights = rng.standard_normal(8)
    X = rng.uniform(size=(n, spec.dim))
    y = cross_gram(spec, X, centers) @ weights + noise * rng.standard_normal(n)
    return X, y


def gp_path_log_posterior(state, prior, theta):
    """Reference: refit a GaussianProcess under theta."""
    refit = state.set_kernel(KernelSpec(theta))
    return refit.log_marginal_likelihood() + prior.log_density(theta)


class TestLogPosterior:
    # nu picks the kernel profile, see use_profile; the data are SE draws
    @pytest.mark.parametrize("nu", [1.5, 2.5, None], ids=["matern15", "matern25", "se"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("t", [0, 1, 25])
    def test_bit_identical_to_gp_path(self, use_profile, nu, d, t):
        X, y = sample_from(np.full(d, 0.3), t, seed=t + d)
        use_profile(nu)
        state = GaussianProcess(KernelSpec(np.ones(d)), 0.05, X, y)
        prior = LengthscalePrior()
        objective = _log_posterior(state, prior)
        for theta in (np.full(d, 0.01), np.linspace(0.1, 0.7, d), np.full(d, 30.0)):
            expect = gp_path_log_posterior(state, prior, theta)
            assert objective(theta) == expect
            assert objective(theta) == expect  # and again: no state between calls

    def test_minus_inf_where_factorization_fails(self, monkeypatch):
        X, y = sample_from(0.3, 5, seed=0)
        state = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)

        def failing_dpotrf(A, **kwargs):
            return A, 1  # LAPACK's info > 0: not positive definite

        monkeypatch.setattr(gp_module, "dpotrf", failing_dpotrf)
        theta = np.array([0.2])
        with pytest.raises(SingularModelError):
            gp_path_log_posterior(state, LengthscalePrior(), theta)
        assert _log_posterior(state, LengthscalePrior())(theta) == -math.inf

    def test_map_estimate_runs_at_most_40_factorizations(self, monkeypatch):
        X, y = sample_from(0.3, 25, seed=4)
        state = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)
        calls = []
        dpotrf = gp_module.dpotrf

        def counting_dpotrf(A, **kwargs):
            calls.append(A.shape)
            return dpotrf(A, **kwargs)

        monkeypatch.setattr(gp_module, "dpotrf", counting_dpotrf)
        map_estimate(state, LengthscalePrior(), init=np.ones(1))
        # 5 starts x 3 sweeps x 32 golden-section probes repeat one search
        assert 0 < len(calls) <= 40


class TestMapEstimate:
    def test_single_point_returns_prior_mode(self):
        # one observation: the likelihood is lengthscale-independent, so the
        # posterior is maximized at the prior mode
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1, [[0.3]], [0.5])
        prior = LengthscalePrior(shape=2.0, rate=10.0)
        result = map_estimate(gp, prior, init=np.ones(1))
        assert result.theta_map[0] == pytest.approx(prior.mode, rel=1e-3)

    def test_recovers_long_lengthscale(self):
        X, y = sample_from(0.8, 25, seed=0)
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)
        prior = LengthscalePrior(shape=1.001, rate=0.01)  # near-flat
        result = map_estimate(gp, prior, init=np.ones(1))
        assert result.theta_map[0] >= 0.4  # at least theta/2

    def test_truncated_to_decade_around_init(self):
        X, y = sample_from(0.8, 25, seed=1)
        gp = GaussianProcess(KernelSpec(np.full(1, 0.01)), 0.05, X, y)
        prior = LengthscalePrior()
        result = map_estimate(gp, prior, init=np.full(1, 0.01))
        assert 0.001 <= result.theta_map[0] <= 0.1 + 1e-12

    def test_near_flat_prior_matches_maximum_likelihood(self):
        X, y = sample_from(0.5, 20, seed=2)
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)
        flat = LengthscalePrior(shape=1.0, rate=1e-9)
        result = map_estimate(gp, flat, init=np.ones(1))
        # prior contribution at the optimum is ~0, so the objective equals
        # the log marginal likelihood
        refit = gp.set_kernel(KernelSpec(result.theta_map))
        assert result.log_posterior == pytest.approx(
            refit.log_marginal_likelihood(), abs=1e-6
        )

    def test_never_worse_than_init(self):
        for seed in range(3):
            X, y = sample_from(0.3, 15, seed=seed)
            gp = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)
            prior = LengthscalePrior()
            result = map_estimate(gp, prior, init=np.ones(1))
            init_obj = (
                gp.log_marginal_likelihood() + prior.log_density(np.ones(1))
            )
            assert result.log_posterior >= init_obj - 1e-9

    def test_deterministic(self):
        X, y = sample_from(0.3, 15, seed=3)
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.05, X, y)
        prior = LengthscalePrior()
        a = map_estimate(gp, prior, init=np.ones(1))
        b = map_estimate(gp, prior, init=np.ones(1))
        assert np.array_equal(a.theta_map, b.theta_map)


def stub_log_posterior(monkeypatch, value_at):
    """Put value_at(theta) in place of the log posterior; returns the list
    of every theta map_estimate evaluates, in order."""
    seen = []

    def log_posterior(state, prior):
        def objective(theta):
            seen.append(theta.copy())
            return value_at(theta)

        return objective

    monkeypatch.setattr(hyperparam, "_log_posterior", log_posterior)
    return seen


class TestNonFiniteStarts:
    def test_non_finite_init_is_returned(self, monkeypatch, caplog):
        seen = stub_log_posterior(monkeypatch, lambda theta: -math.inf)
        gp = GaussianProcess(KernelSpec(np.ones(2)), 0.1)
        with caplog.at_level(logging.WARNING, logger="abo.hyperparam"):
            result = map_estimate(gp, LengthscalePrior(), init=[0.5, 2.0])
        np.testing.assert_array_equal(result.theta_map, [0.5, 2.0])
        assert result.log_posterior == -math.inf and len(seen) == 1
        assert "non-finite at init" in caplog.text

    def test_non_finite_start_is_skipped(self, monkeypatch):
        init = np.full(2, 0.005)
        lo = np.maximum(hyperparam.BOX_LOW, init / hyperparam.TRUNCATION_FACTOR)
        hi = np.minimum(hyperparam.BOX_HIGH, init * hyperparam.TRUNCATION_FACTOR)
        mode = np.clip(np.full(2, LengthscalePrior().mode), lo, hi)  # the box's top

        def value_at(theta):
            if np.array_equal(theta, mode):
                return -math.inf
            return -float(np.sum(np.log(theta / 0.02) ** 2))

        seen = stub_log_posterior(monkeypatch, value_at)
        gp = GaussianProcess(KernelSpec(np.ones(2)), 0.1)
        result = map_estimate(gp, LengthscalePrior(), init=init)
        at = [k for k, theta in enumerate(seen) if np.array_equal(theta, mode)]
        assert len(at) == 1
        # no line search from the mode: the next start follows at once
        np.testing.assert_array_equal(seen[at[0] + 1], np.sqrt(lo * hi))
        assert math.isfinite(result.log_posterior)


def every_line_search(state, prior, init):
    """Reference: map_estimate's starts and sweeps, running every line search."""
    lo = np.maximum(hyperparam.BOX_LOW, init / hyperparam.TRUNCATION_FACTOR)
    hi = np.minimum(hyperparam.BOX_HIGH, init * hyperparam.TRUNCATION_FACTOR)
    objective = _log_posterior(state, prior)
    mode = np.full(init.shape[0], prior.mode if prior.mode > 0 else hyperparam.BOX_LOW)
    starts = [init, mode, np.sqrt(lo * hi), init / 3.0, init * 3.0]
    best_theta = np.clip(init, lo, hi)
    best_val = objective(best_theta)
    for start in starts:
        theta = np.clip(start, lo, hi)
        val = objective(theta)
        if not math.isfinite(val):
            continue
        for _ in range(hyperparam._SWEEPS):
            for i in range(init.shape[0]):
                def f(log_ti, i=i, theta=theta):
                    cand = theta.copy()
                    cand[i] = math.exp(log_ti)
                    return objective(cand)

                x, fx = hyperparam._golden_section(f, math.log(lo[i]), math.log(hi[i]))
                if fx > val:
                    theta[i], val = math.exp(x), fx
        if val > best_val:
            best_theta, best_val = theta, val
    return best_theta, best_val


class TestLineSearchMemo:
    @pytest.mark.parametrize("d", [1, 2])
    def test_searches_run_once_with_unmemoized_bits(self, monkeypatch, d):
        X, y = sample_from(np.full(d, 0.3), 20, seed=d)
        state = GaussianProcess(KernelSpec(np.ones(d)), 0.05, X, y)
        prior, init = LengthscalePrior(), np.ones(d)
        theta, val = every_line_search(state, prior, init)
        calls = []
        golden_section = hyperparam._golden_section

        def counting(*args):
            calls.append(args)
            return golden_section(*args)

        monkeypatch.setattr(hyperparam, "_golden_section", counting)
        result = map_estimate(state, prior, init=init)
        # 5 starts x 3 sweeps x d searches without the memo; in 1-d all
        # are the same one
        assert len(calls) < 15 * d
        assert d > 1 or len(calls) == 1
        assert np.array_equal(result.theta_map, theta) and result.log_posterior == val


class TestCombineOperators:
    def test_combine_max_identity_regions(self):
        out = combine_max([0.5], [1.0], g=1.0)
        assert out[0] == 0.5
        out = combine_max([2.0], [1.0], g=1.0)
        assert out[0] == 1.0

    def test_combine_max_elementwise(self):
        out = combine_max([2.0, 0.05], [1.0, 1.0], g=2.0)
        np.testing.assert_allclose(out, [0.5, 0.05])

    def test_combine_max_large_g(self):
        out = combine_max([2.0], [1.0], g=1e9)
        assert out[0] == pytest.approx(1e-9)

    def test_combine_max_invalid_g(self):
        with pytest.raises(ValueError):
            combine_max([1.0], [1.0], g=0.5)

    def test_combine_scale_small_g_is_identity(self):
        np.testing.assert_array_equal(combine_scale([2.0, 0.05], 0.5), [2.0, 0.05])
        np.testing.assert_array_equal(combine_scale([2.0, 0.05], 1.0), [2.0, 0.05])

    def test_combine_scale_divides(self):
        np.testing.assert_allclose(combine_scale([2.0, 0.05], 2.0), [1.0, 0.025])

    def test_operators_nonincreasing_in_g_and_positive(self):
        theta_map = np.array([0.7, 0.2])
        theta0 = np.ones(2)
        prev_max = theta_map.copy()
        prev_scale = theta_map.copy()
        for g in (1.0, 2.0, 5.0, 100.0):
            cm = combine_max(theta_map, theta0, g)
            cs = combine_scale(theta_map, g)
            assert np.all(cm > 0) and np.all(cs > 0)
            assert np.all(cm <= prev_max + 1e-15)
            assert np.all(cs <= prev_scale + 1e-15)
            assert np.all(cm <= theta0 / g + 1e-15)
            assert np.all(cs <= theta_map + 1e-15)
            prev_max, prev_scale = cm, cs
