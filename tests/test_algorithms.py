import numpy as np
import pytest

from abo.algorithms import AlgorithmConfig, maximize_ucb, run
from abo.confidence import ConfidenceParams, beta_sqrt
from abo.gp import GaussianProcess
from abo.kernels import KernelSpec
from abo.objectives import bump_linear_preset, make_rkhs_function


def small_objective(seed=0):
    return make_rkhs_function(KernelSpec(np.array([0.2])), m=8, target_norm=2.0, seed=seed)


class TestConfig:
    def test_defaults(self):
        c = AlgorithmConfig()
        assert c.variant == "agp_ucb"
        assert c.b0 == 2.0 and c.delta == 0.9 and c.lam == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(variant="nope")
        with pytest.raises(ValueError):
            AlgorithmConfig(estimator="nope")
        with pytest.raises(ValueError):
            AlgorithmConfig(map_mode="nope")
        with pytest.raises(ValueError):
            AlgorithmConfig(iterations=0)
        with pytest.raises(ValueError):
            AlgorithmConfig(delta=1.5)
        with pytest.raises(ValueError):
            AlgorithmConfig(beta_constant=0.0)

    def test_theta0_broadcast(self):
        np.testing.assert_array_equal(
            AlgorithmConfig(theta0=0.5).theta0_vector(3), [0.5, 0.5, 0.5]
        )
        np.testing.assert_array_equal(
            AlgorithmConfig(theta0=(1.0, 2.0)).theta0_vector(2), [1.0, 2.0]
        )
        with pytest.raises(ValueError):
            AlgorithmConfig(theta0=(1.0, 2.0)).theta0_vector(3)


class TestMaximizeUcb:
    def test_constant_surface_tie_break(self):
        gp = GaussianProcess(KernelSpec(np.ones(2)), 0.1)
        x = maximize_ucb(gp, 1.0, 2)
        # prior is flat: the first scan candidate wins and refinement cannot
        # improve on a constant surface
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_argmax_near_single_positive_observation(self):
        gp = GaussianProcess(KernelSpec(np.array([0.3])), 0.1).add_observation(
            [0.6], 2.0
        )
        x = maximize_ucb(gp, 0.05, 1)
        assert abs(x[0] - 0.6) < 0.05

    def test_dominates_random_probes(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(8, 2))
        gp = GaussianProcess(
            KernelSpec(np.full(2, 0.4)), 0.1, X, rng.standard_normal(8)
        )
        bs = 2.0
        x = maximize_ucb(gp, bs, 2)
        mean, var = gp.posterior_mean_var(x)
        best = mean + bs * np.sqrt(var)
        probes = rng.uniform(size=(10_000, 2))
        m, v = gp.posterior(probes)
        assert best >= (m + bs * np.sqrt(v)).max() - 1e-6

    def test_stays_in_cube(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 3))
        gp = GaussianProcess(
            KernelSpec(np.full(3, 0.5)), 0.1, X, rng.standard_normal(5)
        )
        x = maximize_ucb(gp, 3.0, 3)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_invalid_beta(self):
        gp = GaussianProcess(KernelSpec(np.ones(1)), 0.1)
        with pytest.raises(ValueError):
            maximize_ucb(gp, 0.0, 1)


class TestRunTraces:
    def run_short(self, variant, **kwargs):
        obj = small_objective()
        config = AlgorithmConfig(variant=variant, iterations=8, seed=0, **kwargs)
        return obj, run(obj, config)

    @pytest.mark.parametrize("variant", ["agp_ucb", "fixed_gp_ucb", "wang_shrink"])
    def test_row_count_and_init_flags(self, variant):
        obj, trace = self.run_short(variant)
        assert len(trace) == 8 + 2  # 2^d init points for d=1
        assert trace.iters[:2] == [-2, -1]
        assert trace.iters[2:] == list(range(1, 9))

    @pytest.mark.parametrize("variant", ["agp_ucb", "fixed_gp_ucb", "wang_shrink"])
    def test_points_in_cube_and_regret_monotone(self, variant):
        obj, trace = self.run_short(variant)
        X = np.asarray(trace.X)
        assert np.all(X >= 0.0) and np.all(X <= 1.0)
        assert np.all(np.diff(trace.simple_regret) <= 1e-12)
        assert np.all(np.diff(trace.cumulative_regret) >= -1e-12)

    def test_agp_schedule_monotone(self):
        obj, trace = self.run_short("agp_ucb")
        bo = trace.bo_slice()
        h = np.asarray(trace.h)[bo]
        g = np.asarray(trace.g)[bo]
        b = np.asarray(trace.b)[bo]
        theta = np.asarray(trace.theta)[bo]
        assert np.all(np.diff(h) >= 0)
        assert np.all(np.diff(g) >= 0)
        assert np.all(np.diff(b) >= 0)
        assert np.all(np.diff(theta[:, 0]) <= 1e-15)
        np.testing.assert_allclose(g**obj.dim * b, h, rtol=1e-9)

    def test_fixed_gp_ucb_constant_schedule(self):
        obj, trace = self.run_short("fixed_gp_ucb")
        bo = trace.bo_slice()
        assert np.all(np.asarray(trace.g)[bo] == 1.0)
        assert np.all(np.asarray(trace.h)[bo] == 1.0)

    def test_wang_kappa_zero_limit_matches_fixed(self):
        obj = small_objective()
        wang = run(obj, AlgorithmConfig(
            variant="wang_shrink", kappa=1e-12, iterations=6, seed=0
        ))
        fixed = run(obj, AlgorithmConfig(
            variant="fixed_gp_ucb", iterations=6, seed=0
        ))
        np.testing.assert_array_equal(np.asarray(wang.X), np.asarray(fixed.X))
        np.testing.assert_array_equal(wang.y, fixed.y)

    def test_trace_replay_reproduces_beta_sigma_widths(self):
        # rebuild the GP from logged rows and check logged beta against the
        # confidence formula under the logged schedule
        obj = small_objective()
        config = AlgorithmConfig(iterations=6, seed=0)
        trace = run(obj, config)
        X = np.asarray(trace.X)
        y = np.asarray(trace.y)
        iters = np.asarray(trace.iters)
        for t in range(1, 7):
            i = int(np.where(iters == t)[0][0])
            past = slice(0, i)
            theta_t = trace.theta[i]
            gp = GaussianProcess(
                obj.kernel.with_lengthscales(theta_t), config.noise_sigma,
                X[past], y[past],
            )
            norm_bound = trace.b[i] * trace.g[i] ** obj.dim * config.b0
            params = ConfidenceParams(config.delta, config.noise_sigma, norm_bound)
            expect = beta_sqrt(params, gp.mutual_information())
            assert trace.beta_sqrt[i] == pytest.approx(expect, abs=1e-8)

    def test_determinism(self):
        obj = small_objective()
        config = AlgorithmConfig(iterations=6, seed=3)
        a, b = run(obj, config), run(obj, config)
        assert np.array_equal(np.asarray(a.X), np.asarray(b.X))
        assert a.y == b.y and a.beta_sqrt == b.beta_sqrt

    def test_one_step_estimator_runs(self):
        obj = small_objective()
        trace = run(obj, AlgorithmConfig(
            estimator="one_step", iterations=4, seed=0
        ))
        bo = trace.bo_slice()
        assert np.all(np.diff(np.asarray(trace.h)[bo]) >= 0)

    @pytest.mark.parametrize("mode", ["combine_max", "combine_scale"])
    def test_map_modes_run(self, mode):
        obj = small_objective()
        trace = run(obj, AlgorithmConfig(map_mode=mode, iterations=3, seed=0))
        theta = np.asarray(trace.theta)[trace.bo_slice()]
        assert np.all(theta > 0)
        if mode == "combine_max":
            g = np.asarray(trace.g)[trace.bo_slice()]
            assert np.all(theta[:, 0] <= 1.0 / g + 1e-12)

    def test_empirical_beta_mode(self):
        obj = small_objective()
        trace = run(obj, AlgorithmConfig(
            variant="fixed_gp_ucb", beta_mode="empirical", beta_constant=2.5,
            iterations=3, seed=0,
        ))
        bo = trace.bo_slice()
        assert all(b == 2.5 for b, m in zip(trace.beta_sqrt, bo) if m)

    def test_non_finite_objective_aborts_with_partial_trace(self):
        obj = small_objective()
        bad = type(obj)(
            kernel=obj.kernel, centers=obj.centers,
            weights=obj.weights * np.inf, true_norm=obj.true_norm,
            f_max=obj.f_max, x_star=obj.x_star, f_min=obj.f_min,
        )
        trace = run(bad, AlgorithmConfig(variant="fixed_gp_ucb", iterations=5, seed=0))
        assert trace.aborted

    def test_zero_regret_on_constant_objective(self):
        obj = small_objective()
        const = type(obj)(
            kernel=obj.kernel, centers=obj.centers,
            weights=np.zeros_like(obj.weights), true_norm=obj.true_norm,
            f_max=0.0, x_star=obj.x_star, f_min=0.0,
        )
        trace = run(const, AlgorithmConfig(variant="fixed_gp_ucb", iterations=5, seed=0))
        np.testing.assert_allclose(trace.cumulative_regret, 0.0, atol=1e-12)


class TestConvergenceSmoke:
    def test_agp_ucb_finds_bump_preset_optimum(self):
        # misspecified initial lengthscale 1.0 on the preset with true 0.1;
        # MAP estimation combined with the schedule escapes the local trap
        obj = bump_linear_preset()
        hits = 0
        for seed in range(2):
            trace = run(
                obj,
                AlgorithmConfig(iterations=100, seed=seed, map_mode="combine_max"),
            )
            if trace.simple_regret[-1] <= 0.1 * obj.value_range:
                hits += 1
        assert hits == 2
