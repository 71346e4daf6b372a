"""Hyperparameter-expansion schedule.

A single nondecreasing master scale h(t) is split into a lengthscale shrink
g(t) and a norm inflation b(t) through the tradeoff lambda, and h(t) itself
is chosen so that an estimate of the cumulative regret under the scaled
hyperparameters matches a sublinear reference curve p(t) = t^alpha.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .gp import GaussianProcess

log = logging.getLogger(__name__)

REGRET_BOUND = "regret_bound"
ONE_STEP = "one_step"
ESTIMATORS = (REGRET_BOUND, ONE_STEP)

# Relative tolerance of the h(t) line search.
H_SOLVE_RTOL = 1e-6

# Line-search grid for the sigma >= kappa shrinking baseline.
WANG_GRID_RATIO = 1.05
WANG_CAP = 1e3


def h_cap(t: int) -> float:
    """Hard sublinear envelope on the master scale, 1 + t^0.45."""
    return 1.0 + float(t) ** 0.45


def decompose(h: float, lam: float, d: int) -> tuple[float, float]:
    """Split h into (g, b) with (1 + eps_g)(1 + eps_b) = h, eps_b = lam*eps_g.

    g^d = 1 + eps_g and b = 1 + eps_b; for lam = 0 the whole expansion goes
    into the lengthscales.
    """
    if h < 1:
        raise ValueError(f"master scale h must be >= 1, got {h}")
    if lam < 0:
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


def c1_constant(noise_sigma: float) -> float:
    """Regret-bound constant 8 / ln(1 + sigma^-2)."""
    return 8.0 / math.log(1.0 + noise_sigma**-2)


@dataclass
class ScalingState:
    """Per-run schedule state; h_prev only ever increases."""

    lam: float
    dim: int
    theta0: np.ndarray
    b0: float
    reference_exponent: float = 0.9
    gamma_exponent: float | None = None
    h_prev: float = 1.0

    def __post_init__(self):
        self.theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if self.gamma_exponent is None:
            # d for the squared-exponential family; 2*nu + d for Matern
            self.gamma_exponent = float(self.dim)
        if not 0 < self.reference_exponent < 1:
            raise ValueError("reference exponent must lie in (0, 1)")

    def accept(self, h: float) -> None:
        if h < self.h_prev:
            raise ValueError("master scale must be nondecreasing")
        self.h_prev = h


def scaled_hyperparameters(s: ScalingState, h: float) -> tuple[np.ndarray, float]:
    """Lengthscales theta0/g and norm bound b*g^d*B0 for master scale h."""
    g, b = decompose(h, s.lam, s.dim)
    theta_t = s.theta0 / g
    b_t = b * g**s.dim * s.b0
    return theta_t, b_t


def reference_regret(s: ScalingState, t: int) -> float:
    """Sublinear reference curve p(t) = t^alpha."""
    if t < 1:
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
    """Regret estimate sqrt(C1 t beta_t (g/g_prev)^gamma_exp I_prev).

    ``mi_prev_theta`` is the mutual information of all collected inputs under
    the previous iteration's lengthscales, those of ``s.h_prev``;
    ``beta_fn(norm_bound, mi)`` returns the width multiplier beta^{1/2}.
    Monotone increasing in h.
    """
    g_prev, _ = decompose(s.h_prev, s.lam, s.dim)
    g, _ = decompose(h, s.lam, s.dim)
    scaled_mi = (g / g_prev) ** s.gamma_exponent * mi_prev_theta
    _, norm_bound = scaled_hyperparameters(s, h)
    bs = beta_fn(norm_bound, scaled_mi)
    c1 = c1_constant(noise_sigma)
    return math.sqrt(c1 * t * bs**2 * scaled_mi)


def one_step_estimate(history, candidate: tuple[float, float]) -> float:
    """Sum of frozen instantaneous-regret bounds plus the candidate term.

    ``history`` holds the values 2 beta_j^{1/2} sigma_j(x_{j+1}) frozen at
    past iterations; ``candidate`` is (beta_sqrt_t(h), sigma_t at the input
    the UCB rule would pick under h).
    """
    bs, sigma = candidate
    return float(sum(history)) + 2.0 * bs * sigma


def solve_h(s: ScalingState, t: int, estimator_eval) -> float:
    """Line-search h >= h_prev with estimator_eval(h) = p(t), capped.

    Returns h_prev if the estimated regret already exceeds the reference,
    and the cap 1 + t^0.45 if even the capped scale stays below it. A
    bracket failure (non-monotone estimator) falls back to h_prev.
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
    try:
        root = brentq(
            lambda h: estimator_eval(h) - p, lo, cap, rtol=H_SOLVE_RTOL
        )
    except ValueError:
        log.warning("h(t) bracket failed at t=%d; keeping h=%g", t, lo)
        return lo
    return max(float(root), lo)


def wang_baseline_scale(state: GaussianProcess, kappa: float, x_next_fn) -> float:
    """Smallest lengthscale-shrink factor keeping sigma_t(x_next) >= kappa.

    Searches a geometric grid with ratio 1.05 up to a cap of 10^3; the next
    input is recomputed under each candidate scaling via ``x_next_fn``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    c = 1.0
    while c <= WANG_CAP:
        candidate = state.set_kernel(state.kernel.scaled(c)) if c > 1 else state
        x_next = x_next_fn(candidate)
        _, var = candidate.posterior_mean_var(x_next)
        if math.sqrt(var) >= kappa:
            return c
        c *= WANG_GRID_RATIO
    log.warning("shrink-factor search hit cap %g", WANG_CAP)
    return WANG_CAP
