import logging
import math

import numpy as np
import pytest

from abo.adaptation import (
    WANG_CAP,
    ScalingState,
    beta_sqrt,
    c1_constant,
    decompose,
    h_cap,
    one_step_estimate,
    reference_regret,
    regret_bound_estimate,
    scaled_hyperparameters,
    solve_h,
    wang_baseline_scale,
)
from abo.gp import GaussianProcess
from abo.kernels import KernelSpec


def state(**kwargs):
    defaults = dict(lam=0.1, theta0=np.ones(1), b0=2.0)
    defaults.update(kwargs)
    return ScalingState(**defaults)


class TestDecompose:
    def test_identity_at_one(self):
        for lam in (0.0, 0.1, 1.0, 10.0):
            assert decompose(1.0, lam, 1) == (1.0, 1.0)

    def test_known_split(self):
        g, b = decompose(2.0, 0.1, 1)
        eps = (-1.1 + math.sqrt(1.61)) / 0.2
        assert g == pytest.approx(1.0 + eps, abs=1e-9)
        assert b == pytest.approx(1.0 + 0.1 * eps, abs=1e-9)
        assert g == pytest.approx(1.844289, abs=1e-5)
        assert b == pytest.approx(1.084429, abs=1e-5)
        assert g * b == pytest.approx(2.0, abs=1e-9)

    def test_all_expansion_to_lengthscales(self):
        g, b = decompose(2.0, 0.0, 2)
        assert g == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert b == 1.0

    def test_product_identity(self):
        for h in (1.0, 1.5, 10.0, 1e3, 1e6):
            for lam in (0.0, 0.1, 1.0, 10.0):
                for d in (1, 2, 4):
                    g, b = decompose(h, lam, d)
                    assert g**d * b == pytest.approx(h, rel=1e-9)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            decompose(0.5, 0.1, 1)


class TestScaledHyperparameters:
    def test_identity(self):
        bt, g, b, _, theta = scaled_hyperparameters(state(), 1.0)
        assert (g, b) == (1.0, 1.0)
        np.testing.assert_array_equal(theta, np.ones(1))
        assert bt == 2.0

    def test_known_arithmetic(self):
        s = state(theta0=np.ones(2))
        bt, g, b, _, theta = scaled_hyperparameters(s, 6.0)
        assert (g, b) == decompose(6.0, s.lam, s.dim)
        np.testing.assert_array_equal(theta, s.theta0 / g)
        assert bt == b * g**2 * s.b0

    def test_monotone_in_h(self):
        s = state()
        prev_b, _, _, _, prev_theta = scaled_hyperparameters(s, 1.0)
        for h in (1.5, 2.0, 5.0, 20.0):
            bt, _, _, _, theta = scaled_hyperparameters(s, h)
            assert np.all(theta <= prev_theta)
            assert bt >= prev_b
            prev_theta, prev_b = theta, bt


class TestReferenceRegret:
    def test_t_one(self):
        assert reference_regret(state(), 1) == 1.0

    def test_power_law(self):
        assert reference_regret(state(reference_exponent=0.9), 100) == (
            pytest.approx(100**0.9, abs=1e-9)
        )
        assert 100**0.9 == pytest.approx(63.095734, abs=1e-5)

    def test_sublinear(self):
        for alpha in (0.3, 0.5, 0.9):
            s = state(reference_exponent=alpha)
            ratios = [reference_regret(s, t) / t for t in (1, 10, 100, 1000)]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            state(reference_exponent=1.0)


class TestHCap:
    def test_sublinear(self):
        ratios = [h_cap(t) / t for t in (1, 10, 100, 10_000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestRegretBoundEstimate:
    @staticmethod
    def beta_fn(norm_bound, mi):
        return beta_sqrt(norm_bound, mi, noise_sigma=0.1, delta=0.9)

    def test_c1_constant(self):
        assert c1_constant(0.1) == pytest.approx(8.0 / math.log(101), abs=1e-9)
        assert c1_constant(0.1) == pytest.approx(1.733438, abs=1e-5)

    def test_zero_information_edge(self):
        est = regret_bound_estimate(
            state(), 1.0, 1, 0.0, self.beta_fn, noise_sigma=0.1
        )
        assert est == 0.0

    def test_strictly_increasing_in_h(self):
        s = state()
        vals = [
            regret_bound_estimate(s, h, 10, 2.0, self.beta_fn, noise_sigma=0.1)
            for h in (1.0, 1.5, 2.0, 5.0, 20.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_explicit_formula(self):
        s = state()
        h, t, mi = 2.0, 10, 1.5
        g, b = decompose(h, s.lam, s.dim)
        scaled_mi = g**s.dim * mi  # g_prev = 1
        bs = self.beta_fn(b * g**s.dim * s.b0, scaled_mi)
        expect = math.sqrt(c1_constant(0.1) * t * bs**2 * scaled_mi)
        got = regret_bound_estimate(s, h, t, mi, self.beta_fn, noise_sigma=0.1)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_scales_information_gain_from_previous_g(self):
        # past h_prev = 1.5, the information gain scales by (g/g_prev)^d
        s = state(theta0=np.ones(2))
        s.accept(1.5)
        h, t, mi = 3.0, 10, 1.5
        g_prev, _ = decompose(1.5, s.lam, 2)
        g, b = decompose(h, s.lam, 2)
        scaled_mi = (g / g_prev) ** 2 * mi
        bs = self.beta_fn(b * g**2 * s.b0, scaled_mi)
        expect = math.sqrt(c1_constant(0.1) * t * bs**2 * scaled_mi)
        got = regret_bound_estimate(s, h, t, mi, self.beta_fn, noise_sigma=0.1)
        assert got == pytest.approx(expect, rel=1e-12)


class TestOneStepEstimate:
    def test_single_candidate_term(self):
        assert one_step_estimate(0.0, 2.42, 1.0) == pytest.approx(4.84)

    def test_zero_sigma_candidate(self):
        assert one_step_estimate(1.5, 3.0, 0.0) == pytest.approx(1.5)

    def test_history_plus_candidate(self):
        assert one_step_estimate(1.5, 0.1, 1.0) == pytest.approx(1.7)


class TestSolveH:
    def test_already_above_reference(self):
        s = state()
        assert solve_h(s, 4, lambda h: 100.0) == s.h_prev

    def test_identity_estimator(self):
        s = state(reference_exponent=0.9)
        # p(2) ~ 1.87 sits below the cap, so the root is h = p(t)
        t = 2
        got = solve_h(s, t, lambda h: h)
        assert got == pytest.approx(reference_regret(s, t), rel=1e-5)

    def test_quadratic_estimator(self):
        s = state()
        # h^2 = 9 -> h = 3; needs t with p(t)=9 and cap >= 3: t = 9^(1/0.9)
        t = 12
        p = reference_regret(s, t)
        got = solve_h(s, t, lambda h: h**2)
        assert got == pytest.approx(math.sqrt(p), rel=1e-5)

    def test_capped(self):
        s = state()
        got = solve_h(s, 10, lambda h: 0.0 * h)
        assert got == h_cap(10)

    def test_never_exceeds_cap(self):
        s = state()
        for t in (1, 5, 50):
            assert solve_h(s, t, lambda h: 1e-6 * h) <= h_cap(t)

    def test_bracket_failure_keeps_h_prev(self, caplog):
        s = state()
        s.accept(1.5)
        # a NaN estimate passes neither endpoint test, and brentq rejects it
        with caplog.at_level(logging.WARNING, logger="abo.adaptation"):
            assert solve_h(s, 10, lambda h: math.nan) == 1.5
        assert "bracket failed" in caplog.text

    @pytest.mark.parametrize("above", [0.0, 1.0], ids=["at-cap", "above-cap"])
    def test_h_prev_at_or_above_cap_is_kept(self, above):
        t = 4
        s = state(h_prev=h_cap(t) + above)
        seen = []

        def estimator_eval(h):
            seen.append(h)
            return 0.0  # below p(t), so only the cap can stop the search

        assert solve_h(s, t, estimator_eval) == s.h_prev
        assert seen == [s.h_prev]

    def test_monotone_accept(self):
        s = state()
        s.accept(2.0)
        with pytest.raises(ValueError):
            s.accept(1.5)
        got = solve_h(s, 100, lambda h: h)
        assert got >= 2.0


def sigma_under(gp, x_next):
    """sigma_at(c) for a fixed next input: the posterior standard deviation
    at x_next with the lengthscales shrunk by c; records each c."""
    seen = []

    def sigma_at(c):
        seen.append(c)
        shrunk = KernelSpec(gp.kernel.lengthscales / c)
        _, var = gp.set_kernel(shrunk).posterior_mean_var(x_next)
        return math.sqrt(var)

    return sigma_at, seen


class TestWangBaselineScale:
    def test_prior_needs_no_shrink(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1)
        sigma_at, seen = sigma_under(gp, np.array([0.5]))
        assert wang_baseline_scale(0.1, sigma_at) == 1.0
        assert seen == [1.0]

    def test_dense_data_forces_shrink(self):
        X = np.linspace(0, 1, 40)[:, None]
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1, X, np.zeros(40))
        sigma_at, seen = sigma_under(gp, np.array([0.475]))  # off-grid interior point
        c = wang_baseline_scale(0.1, sigma_at)
        grid = list(seen)
        assert c > 1.0 and grid[-1] == c
        np.testing.assert_allclose(grid, 1.05 ** np.arange(len(grid)), rtol=1e-12)
        # smallest grid factor: the next-lower candidate violates sigma >= kappa
        assert sigma_at(c) >= 0.1
        assert sigma_at(grid[-2]) < 0.1

    def test_tiny_kappa(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1, [[0.5]], [0.0])
        sigma_at, _ = sigma_under(gp, np.array([0.5]))
        assert wang_baseline_scale(1e-12, sigma_at) == 1.0

    def test_cap_reached(self, caplog):
        with caplog.at_level(logging.WARNING, logger="abo.adaptation"):
            assert wang_baseline_scale(0.5, lambda c: 0.0) == WANG_CAP
        assert "hit cap" in caplog.text

    def test_invalid_kappa(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1)
        sigma_at, seen = sigma_under(gp, np.array([0.5]))
        for kappa in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                wang_baseline_scale(kappa, sigma_at)
        assert seen == []
