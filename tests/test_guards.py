"""Public entry points reject NaN, infinite and out-of-range numbers with the
error they raise for any other bad value, rather than passing them on."""

import math

import numpy as np
import pytest

from abo.adaptation import ScalingState, beta_sqrt, decompose, reference_regret
from abo.algorithms import maximize_ucb
from abo.gp import GaussianProcess
from abo.hyperparam import LengthscalePrior, combine_max, combine_scale
from abo.kernels import KernelSpec

NAN, INF = math.nan, math.inf
UNIT = KernelSpec(np.ones(1))


def schedule():
    return ScalingState(lam=0.1, theta0=np.ones(1), b0=2.0)


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
}


@pytest.mark.parametrize("call, words", CASES.values(), ids=CASES.keys())
def test_non_finite_and_out_of_range_inputs_rejected(call, words):
    with pytest.raises(ValueError, match=words):
        call()
