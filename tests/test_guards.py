"""Public entry points reject NaN, infinite and out-of-range numbers, and
vectors or counts of the wrong shape or type, with the error they raise for
any other bad value, rather than passing them on."""

import math

import numpy as np
import pytest

from abo.adaptation import ScalingState, beta_sqrt, decompose, reference_regret
from abo.algorithms import AlgorithmConfig, maximize_ucb
from abo.gp import GaussianProcess
from abo.hyperparam import LengthscalePrior, combine_max, combine_scale, map_estimate
from abo.kernels import KernelSpec

NAN, INF = math.nan, math.inf
UNIT = KernelSpec(np.ones(1))


def schedule(**kwargs):
    return ScalingState(**{"lam": 0.1, "theta0": np.ones(1), "b0": 2.0, **kwargs})


def map_from(init):
    return map_estimate(GaussianProcess(UNIT, 0.1, [[0.5]], [1.0]), LengthscalePrior(), init)


# id -> (call, words of the error message)
CASES = {
    "maximize_ucb-nan": (lambda: maximize_ucb(GaussianProcess(UNIT, 0.1), NAN), "beta_sqrt"),
    "maximize_ucb-inf": (lambda: maximize_ucb(GaussianProcess(UNIT, 0.1), INF), "beta_sqrt"),
    "beta_sqrt-norm-nan": (lambda: beta_sqrt(NAN, 0.0, 0.1, 0.5), "norm_bound"),
    "beta_sqrt-norm-inf": (lambda: beta_sqrt(INF, 0.0, 0.1, 0.5), "norm_bound"),
    "beta_sqrt-mi-nan": (lambda: beta_sqrt(1.0, NAN, 0.1, 0.5), "mutual_info"),
    "beta_sqrt-mi-inf": (lambda: beta_sqrt(1.0, INF, 0.1, 0.5), "mutual_info"),
    "beta_sqrt-sigma-nan": (lambda: beta_sqrt(1.0, 0.0, NAN, 0.5), "noise_sigma"),
    "beta_sqrt-sigma-inf": (lambda: beta_sqrt(1.0, 0.0, INF, 0.5), "noise_sigma"),
    "decompose-h-nan": (lambda: decompose(NAN, 0.1, 1), "master scale"),
    "decompose-h-inf": (lambda: decompose(INF, 0.1, 1), "master scale"),
    "decompose-lam-nan": (lambda: decompose(2.0, NAN, 1), "lambda"),
    "decompose-lam-inf": (lambda: decompose(2.0, INF, 1), "lambda"),
    "accept-nan": (lambda: schedule().accept(NAN), "master scale"),
    "accept-inf": (lambda: schedule().accept(INF), "master scale"),
    "reference_regret-nan": (lambda: reference_regret(schedule(), NAN), "t must"),
    "prior-shape-nan": (lambda: LengthscalePrior(NAN, 1.0), "shape and rate"),
    "prior-rate-inf": (lambda: LengthscalePrior(2.0, INF), "shape and rate"),
    "combine_max-nan": (lambda: combine_max([1.0], [1.0], NAN), "g must"),
    "combine_max-inf": (lambda: combine_max([1.0], [1.0], INF), "g must"),
    "combine_scale-nan": (lambda: combine_scale([1.0], NAN), "g must"),
    "combine_scale-inf": (lambda: combine_scale([1.0], INF), "g must"),
    "gp-noise-zero": (lambda: GaussianProcess(UNIT, 0.0), "noise_sigma"),
    "gp-noise-negative": (lambda: GaussianProcess(UNIT, -0.1), "noise_sigma"),
    "gp-noise-nan": (lambda: GaussianProcess(UNIT, NAN), "noise_sigma"),
    "gp-noise-inf": (lambda: GaussianProcess(UNIT, INF), "noise_sigma"),
    "gp-noise-nan-with-data": (lambda: GaussianProcess(UNIT, NAN, [[0.5]], [1.0]), "noise_sigma"),
    "schedule-theta0-nan": (lambda: schedule(theta0=[NAN]), "theta0"),
    "schedule-theta0-negative": (lambda: schedule(theta0=[1.0, -1.0]), "theta0"),
    "schedule-theta0-empty": (lambda: schedule(theta0=[]), "theta0"),
    "schedule-lam-nan": (lambda: schedule(lam=NAN), "lambda must be nonnegative"),
    "schedule-lam-negative": (lambda: schedule(lam=-0.1), "lambda must be nonnegative"),
    "schedule-lam-inf": (lambda: schedule(lam=INF), "lambda must be nonnegative"),
    "schedule-b0-nan": (lambda: schedule(b0=NAN), "b0"),
    "schedule-b0-zero": (lambda: schedule(b0=0.0), "b0"),
    "schedule-b0-inf": (lambda: schedule(b0=INF), "b0"),
    "schedule-h_prev-nan": (lambda: schedule(h_prev=NAN), "master scale h must be >= 1"),
    "schedule-h_prev-below-one": (lambda: schedule(h_prev=0.5), "master scale h must be >= 1"),
    "schedule-h_prev-inf": (lambda: schedule(h_prev=INF), "master scale h must be >= 1"),
    "map_estimate-init-negative": (lambda: map_from([-1.0]), "init must be positive"),
    "map_estimate-init-nan": (lambda: map_from([NAN]), "init must be positive"),
    "map_estimate-init-inf": (lambda: map_from([INF]), "init must be positive"),
    "map_estimate-init-too-long": (lambda: map_from([1.0, 1.0]), "init has shape"),
    "kernel-no-lengthscales": (lambda: KernelSpec([]), "nonempty"),
    "config-iterations-float": (lambda: AlgorithmConfig(iterations=2.5), "iterations must be an integer"),
    "config-init_points-float": (lambda: AlgorithmConfig(init_points=1.5), "init_points must be an integer"),
    "config-seed-float": (lambda: AlgorithmConfig(seed=1.5), "seed must be an integer"),
}


@pytest.mark.parametrize("call, words", CASES.values(), ids=CASES.keys())
def test_non_finite_and_out_of_range_inputs_rejected(call, words):
    with pytest.raises(ValueError, match=words):
        call()
