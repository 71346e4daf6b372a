"""Hyperparameter-expansion schedule.

A single nondecreasing master scale h(t) is split into a lengthscale shrink
g(t) and a norm inflation b(t) through the tradeoff lambda, and h(t) itself
is chosen so that an estimate of the cumulative regret under the scaled
hyperparameters matches a sublinear reference curve p(t) = t^alpha.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

REGRET_BOUND = "regret_bound"
ONE_STEP = "one_step"
ESTIMATORS = (REGRET_BOUND, ONE_STEP)

# Relative tolerance of the h(t) line search.
H_SOLVE_RTOL = 1e-6

# Line-search grid for the sigma >= kappa shrinking baseline.
WANG_GRID_RATIO = 1.05
WANG_CAP = 1e3

# One UCB step's norm bound, split (g, b) of master scale h, and lengthscales
Step = namedtuple("Step", "norm_bound g b h theta")


def h_cap(t: int) -> float:
    """Hard sublinear envelope on the master scale, 1 + t^0.45."""
    return 1.0 + float(t) ** 0.45


def decompose(h: float, lam: float, d: int) -> tuple[float, float]:
    """Split h into (g, b) with (1 + eps_g)(1 + eps_b) = h, eps_b = lam*eps_g.

    g^d = 1 + eps_g and b = 1 + eps_b; for lam = 0 the whole expansion goes
    into the lengthscales.
    """
    if not 1 <= h < math.inf:
        raise ValueError(f"master scale h must be >= 1, got {h}")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        eps_g = h - 1.0
    else:
        # lam*eps^2 + (1 + lam)*eps + (1 - h) = 0, positive root
        disc = (1.0 + lam) ** 2 - 4.0 * lam * (1.0 - h)
        eps_g = (-(1.0 + lam) + math.sqrt(disc)) / (2.0 * lam)
    eps_g = max(eps_g, 0.0)
    g = (1.0 + eps_g) ** (1.0 / d)
    b = 1.0 + lam * eps_g
    return g, b


def beta_sqrt(
    norm_bound: float, mutual_info: float, noise_sigma: float, delta: float
) -> float:
    """Width multiplier B + 4 sigma sqrt(I + 1 + ln(1/delta)).

    Strictly increasing in the norm bound, noise, mutual information,
    and 1/delta.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be nonnegative")
    if not 0 < norm_bound < math.inf:
        raise ValueError("norm_bound must be positive")
    if not 0 <= mutual_info < math.inf:
        raise ValueError("mutual_info must be nonnegative")
    return norm_bound + 4.0 * noise_sigma * math.sqrt(
        mutual_info + 1.0 + math.log(1.0 / delta)
    )


def c1_constant(noise_sigma: float) -> float:
    """Regret-bound constant 8 / ln(1 + sigma^-2)."""
    return 8.0 / math.log(1.0 + noise_sigma**-2)


@dataclass
class ScalingState:
    """Per-run schedule state; h_prev only ever increases."""

    lam: float
    theta0: np.ndarray
    b0: float
    reference_exponent: float = 0.9
    h_prev: float = 1.0

    def __post_init__(self):
        self.theta0 = theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if theta0.size == 0 or not np.all((theta0 > 0) & (theta0 < math.inf)):
            raise ValueError(f"theta0 must be positive and finite, got {theta0!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative")
        if not 0 < self.b0 < math.inf:
            raise ValueError("b0 must be positive and finite")
        if not 0 < self.reference_exponent < 1:
            raise ValueError("reference exponent must lie in (0, 1)")
        if not 1 <= self.h_prev < math.inf:
            raise ValueError(f"master scale h must be >= 1, got {self.h_prev}")

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]

    def accept(self, h: float) -> None:
        if not self.h_prev <= h < math.inf:
            raise ValueError("master scale must be nondecreasing")
        self.h_prev = h


def scaled_hyperparameters(s: ScalingState, h: float) -> Step:
    """The step at master scale h: lengthscales theta0/g, norm bound b*g^d*B0."""
    g, b = decompose(h, s.lam, s.dim)
    return Step(b * g**s.dim * s.b0, g, b, h, s.theta0 / g)


def reference_regret(s: ScalingState, t: int) -> float:
    """Sublinear reference curve p(t) = t^alpha."""
    if not 1 <= t < math.inf:
        raise ValueError("t must be >= 1")
    return float(t) ** s.reference_exponent


def regret_bound_estimate(
    s: ScalingState,
    h: float,
    t: int,
    mi_prev_theta: float,
    beta_fn,
    noise_sigma: float,
) -> float:
    """Regret estimate sqrt(C1 t beta_t (g/g_prev)^d I_prev).

    ``mi_prev_theta`` is the mutual information of all collected inputs under
    the previous iteration's lengthscales, those of ``s.h_prev``;
    ``beta_fn(norm_bound, mi)`` returns the width multiplier beta^{1/2}.
    Monotone increasing in h.
    """
    g_prev, _ = decompose(s.h_prev, s.lam, s.dim)
    step = scaled_hyperparameters(s, h)
    scaled_mi = (step.g / g_prev) ** s.dim * mi_prev_theta
    bs = beta_fn(step.norm_bound, scaled_mi)
    c1 = c1_constant(noise_sigma)
    return math.sqrt(c1 * t * bs**2 * scaled_mi)


def one_step_estimate(frozen: float, bs: float, sigma: float) -> float:
    """Frozen instantaneous-regret bounds plus the candidate term 2 bs sigma.

    ``frozen`` is the sum of 2 beta_j^{1/2} sigma_j(x_j) over past steps,
    added in step order; ``bs`` is beta_t^{1/2}(h) and ``sigma`` sigma_t at
    the input the UCB rule would pick under h.
    """
    return frozen + 2.0 * bs * sigma


def solve_h(s: ScalingState, t: int, estimator_eval) -> float:
    """Line-search h >= h_prev with estimator_eval(h) = p(t), capped.

    Returns h_prev if the estimated regret already exceeds the reference,
    and the cap 1 + t^0.45 if even the capped scale stays below it. An
    h_prev at or above the cap, which a run never passes but a direct caller
    may, is returned after one estimator call. A bracket failure
    (non-monotone estimator) falls back to h_prev. Only a bracketed solve
    imports ``brentq``, and with it ``scipy.optimize``, which ``import abo``
    leaves out.
    """
    p = reference_regret(s, t)
    cap = h_cap(t)
    lo = s.h_prev
    if estimator_eval(lo) >= p:
        return lo
    if lo >= cap:
        return lo
    if estimator_eval(cap) <= p:
        return cap
    from scipy.optimize import brentq

    try:
        root = brentq(
            lambda h: estimator_eval(h) - p, lo, cap, rtol=H_SOLVE_RTOL
        )
    except ValueError:
        log.warning("h(t) bracket failed at t=%d; keeping h=%g", t, lo)
        return lo
    return max(float(root), lo)


def wang_baseline_scale(kappa: float, sigma_at) -> float:
    """Smallest lengthscale-shrink factor c with sigma_at(c) >= kappa.

    ``sigma_at(c)`` is the posterior standard deviation at the next input
    chosen under lengthscales shrunk by c. Searches a geometric grid with
    ratio 1.05 up to a cap of 10^3.
    """
    if not 0 < kappa < 1:
        # the unit-variance kernel keeps sigma <= 1, so kappa >= 1 only
        # ever reaches the cap
        raise ValueError(f"kappa must lie in (0, 1), got {kappa!r}")
    c = 1.0
    while c <= WANG_CAP:
        if sigma_at(c) >= kappa:
            return c
        c *= WANG_GRID_RATIO
    log.warning("shrink-factor search hit cap %g", WANG_CAP)
    return WANG_CAP
