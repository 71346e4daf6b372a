import json
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import qmc

from abo.cli import make_objective
from abo.errors import InvalidSpecError
from abo.kernels import KernelSpec, rkhs_norm_of_expansion
from abo.objectives import (
    ObjectiveSpec,
    bump_linear_preset,
    evaluate_objective,
    make_gp_sample_function,
    make_rkhs_function,
    sobol_points,
)


def spec_1d(theta=0.1):
    return KernelSpec(np.array([theta]))


class TestEvaluate:
    def test_lone_center(self):
        # seed chosen so the single weight draw is positive
        obj = make_rkhs_function(spec_1d(), m=1, target_norm=2.0, seed=1)
        center = obj.centers[0]
        assert evaluate_objective(obj, center) == pytest.approx(2.0, abs=1e-8)
        assert obj.weights[0] == pytest.approx(2.0, abs=1e-8)
        assert obj.f_max == pytest.approx(2.0, abs=1e-6)

    def test_decay_far_from_centers(self):
        obj = make_rkhs_function(spec_1d(), m=1, target_norm=2.0, seed=1)
        far = obj.centers[0] + 1.0
        assert abs(evaluate_objective(obj, far)) < 1e-6

    def test_linearity_in_weights(self):
        obj = make_rkhs_function(spec_1d(0.3), m=5, target_norm=2.0, seed=1)
        doubled = ObjectiveSpec(
            kernel=obj.kernel,
            centers=obj.centers,
            weights=obj.weights * 2,
            true_norm=obj.true_norm * 2,
            f_max=obj.f_max,
            x_star=obj.x_star,
            f_min=obj.f_min,
        )
        for x in (0.1, 0.4, 0.9):
            assert evaluate_objective(doubled, [x]) == pytest.approx(
                2 * evaluate_objective(obj, [x]), rel=1e-12
            )

    def test_batch_matches_single(self):
        obj = make_rkhs_function(spec_1d(0.3), m=5, target_norm=2.0, seed=1)
        X = np.linspace(0, 1, 7)[:, None]
        batch = evaluate_objective(obj, X)
        for i, x in enumerate(X):
            assert batch[i] == pytest.approx(evaluate_objective(obj, x), rel=1e-12)


class TestMakeRkhsFunction:
    def test_norm_round_trip(self):
        for seed in range(5):
            obj = make_rkhs_function(spec_1d(), m=30, target_norm=2.0, seed=seed)
            norm = rkhs_norm_of_expansion(obj.kernel, obj.centers, obj.weights)
            assert norm == pytest.approx(2.0, abs=1e-8)

    def test_f_max_dominates_probes(self):
        rng = np.random.default_rng(0)
        obj = make_rkhs_function(spec_1d(), m=30, target_norm=2.0, seed=0)
        probes = rng.uniform(size=(100_000, 1))
        vals = evaluate_objective(obj, probes)
        assert vals.max() <= obj.f_max + 1e-12 * obj.value_range

    def test_sup_norm_bounded_by_rkhs_norm(self):
        rng = np.random.default_rng(1)
        for seed in range(3):
            obj = make_rkhs_function(spec_1d(), m=30, target_norm=2.0, seed=seed)
            vals = evaluate_objective(obj, rng.uniform(size=(20_000, 1)))
            assert np.abs(vals).max() <= obj.true_norm + 1e-6

    def test_distinct_seeds(self):
        a = make_rkhs_function(spec_1d(), m=10, target_norm=2.0, seed=0)
        b = make_rkhs_function(spec_1d(), m=10, target_norm=2.0, seed=1)
        assert not np.array_equal(a.weights, b.weights)

    def test_invalid_args(self):
        with pytest.raises(InvalidSpecError):
            make_rkhs_function(spec_1d(), m=0, target_norm=2.0, seed=0)
        with pytest.raises(InvalidSpecError):
            make_rkhs_function(spec_1d(), m=5, target_norm=0.0, seed=0)


class TestMakeGpSampleFunction:
    def test_norm_round_trip(self):
        obj = make_gp_sample_function(spec_1d(), grid_size=30, target_norm=4.0, seed=0)
        norm = rkhs_norm_of_expansion(obj.kernel, obj.centers, obj.weights)
        assert norm == pytest.approx(4.0, abs=1e-8)

    def test_interpolates_grid_values(self):
        obj = make_gp_sample_function(spec_1d(0.5), grid_size=2, target_norm=1.0, seed=0)
        # representer weights solve K w = f_grid exactly (up to jitter), so
        # the expansion reproduces its own grid values
        vals = evaluate_objective(obj, obj.centers)
        from abo.kernels import gram_matrix

        K = gram_matrix(obj.kernel, obj.centers)
        np.testing.assert_allclose(vals, K @ obj.weights, atol=1e-8)
        assert vals[0] != vals[1]

    def test_distinct_seeds(self):
        a = make_gp_sample_function(spec_1d(), grid_size=10, target_norm=4.0, seed=0)
        b = make_gp_sample_function(spec_1d(), grid_size=10, target_norm=4.0, seed=1)
        assert not np.array_equal(a.weights, b.weights)

    def test_multidim_f_max_dominates(self):
        rng = np.random.default_rng(2)
        kernel = KernelSpec(np.full(2, 0.1))
        obj = make_gp_sample_function(kernel, grid_size=56, target_norm=4.0, seed=0)
        vals = evaluate_objective(obj, rng.uniform(size=(100_000, 2)))
        assert vals.max() <= obj.f_max + 1e-12 * obj.value_range

    def test_invalid_grid(self):
        with pytest.raises(InvalidSpecError):
            make_gp_sample_function(spec_1d(), grid_size=1, target_norm=4.0, seed=0)


@pytest.mark.parametrize("norm", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "make",
    [partial(make_rkhs_function, m=5), partial(make_gp_sample_function, grid_size=30)],
    ids=["rkhs", "gp_sample"],
)
def test_target_norm_must_be_positive_and_finite(make, norm):
    with pytest.raises(InvalidSpecError, match="positive target norm"):
        make(spec_1d(), target_norm=norm, seed=0)


def _qmc_points(d, n, seed=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n need not be a power of two
        return qmc.Sobol(d, scramble=seed is not None, seed=seed).random(n)


class TestSobolPoints:
    # the unseeded points are built from SciPy's private direction-number
    # file; these pin them to qmc on each installed SciPy
    @pytest.mark.parametrize("d", range(1, 9))
    def test_unseeded_equals_qmc_bit_for_bit(self, d):
        for n in (0, 1, 2, 3, 7, 100, 1024, 1280, 2048, 4096, 4352, 5000):
            got, want = sobol_points(d, n), _qmc_points(d, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (d, n)

    @pytest.mark.parametrize("d, n, seed", [(1, 64, 0), (2, 56, 7), (4, 100, 2**32 - 1)])
    def test_seeded_equals_scrambled_qmc(self, d, n, seed):
        assert sobol_points(d, n, seed).tobytes() == _qmc_points(d, n, seed).tobytes()

    @pytest.mark.parametrize(
        "d, n, error",
        [(2, -1, ValueError), (21202, 4, ValueError), (2, 2.5, TypeError)],
    )
    def test_bad_input_raises_as_qmc(self, d, n, error):
        with pytest.raises(error):
            sobol_points(d, n)
        with pytest.raises(error):
            _qmc_points(d, n)


class TestExtrema:
    @pytest.mark.parametrize(
        "make",
        [
            *(partial(make_objective, "synthetic_4d", s) for s in (0, 3, 19, 300, 347)),
            partial(
                make_gp_sample_function,
                KernelSpec(np.full(2, 0.1)), grid_size=56, target_norm=4.0, seed=1,
            ),
        ],
        ids=["4d-0", "4d-3", "4d-19", "4d-300", "4d-347", "gp-2d"],
    )
    def test_extrema_bound_sample_and_centers(self, make):
        # the extrema of a kernel expansion lie near its centers or on the
        # cube's boundary; clipping a sample of a larger box puts a share of
        # it on the faces, edges and corners, where seeds 19, 300 and 347
        # have their maximum
        obj = make()
        X = np.clip(
            np.random.default_rng(0).uniform(-0.25, 1.25, size=(100_000, obj.dim)),
            0.0, 1.0,
        )
        vals = np.concatenate(
            [evaluate_objective(obj, chunk) for chunk in np.array_split(X, 10)]
            + [evaluate_objective(obj, obj.centers)]
        )
        tol = 1e-12 * obj.value_range
        assert vals.max() <= obj.f_max + tol
        assert vals.min() >= obj.f_min - tol


class TestBumpLinearPreset:
    def test_norm(self):
        obj = bump_linear_preset()
        norm = rkhs_norm_of_expansion(obj.kernel, obj.centers, obj.weights)
        assert norm == pytest.approx(2.0, abs=1e-8)

    def test_shape(self):
        obj = bump_linear_preset()
        # global bump near the left, competing trend maximum to the right
        assert 0.1 < obj.x_star[0] < 0.35
        grid = np.linspace(0, 1, 2001)[:, None]
        vals = evaluate_objective(obj, grid)
        right = vals[grid[:, 0] > 0.6]
        assert right.max() < obj.f_max
        assert right.max() > 0.5 * obj.f_max  # a genuine local trap

    def test_deterministic(self):
        a, b = bump_linear_preset(), bump_linear_preset()
        assert np.array_equal(a.weights, b.weights)
        assert a.f_max == b.f_max


class TestSerialization:
    def test_json_round_trip(self):
        obj = make_rkhs_function(spec_1d(0.3), m=7, target_norm=2.0, seed=4)
        data = obj.to_dict()
        back = json.loads(json.dumps(data))
        assert back == data
        assert back["f_max"] == obj.f_max
        assert back["true_norm"] == obj.true_norm
        np.testing.assert_array_equal(back["centers"], obj.centers)
        np.testing.assert_array_equal(back["weights"], obj.weights)
