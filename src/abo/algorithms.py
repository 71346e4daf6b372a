"""Optimization loops: the adaptive UCB algorithm and its baselines."""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import adaptation, hyperparam
from .adaptation import ESTIMATORS, REGRET_BOUND, ScalingState, decompose
from .confidence import ConfidenceParams, beta_sqrt
from .gp import GaussianProcess
from .kernels import SQUARED_EXPONENTIAL
from .objectives import ObjectiveSpec, evaluate_objective
from .rng import make_rng

log = logging.getLogger(__name__)

AGP_UCB = "agp_ucb"
FIXED_GP_UCB = "fixed_gp_ucb"
WANG_SHRINK = "wang_shrink"

MAP_OFF = "off"
MAP_COMBINE_MAX = "combine_max"
MAP_COMBINE_SCALE = "combine_scale"
MAP_MODES = (MAP_OFF, MAP_COMBINE_MAX, MAP_COMBINE_SCALE)

BETA_THEORETICAL = "theoretical"
BETA_EMPIRICAL = "empirical"

_SCAN_PER_DIM = 1024
_RANDOM_EXTRA = 256
_REFINE_ITERS = 20
_REFINE_STEP = 0.25
_REFINE_SHRINK = 0.65

_POSITIVE = ("beta_constant", "b0", "noise_sigma", "kappa", "prior_shape", "prior_rate")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Everything needed to reproduce one optimization run."""

    variant: str = AGP_UCB
    estimator: str = REGRET_BOUND
    map_mode: str = MAP_OFF
    beta_mode: str = BETA_THEORETICAL
    beta_constant: float = 3.0
    theta0: float | tuple = 1.0
    b0: float = 2.0
    delta: float = 0.9
    noise_sigma: float = 0.1
    lam: float = 0.1
    reference_exponent: float = 0.9
    kappa: float = 0.1
    iterations: int = 100
    seed: int = 0
    init_points: int | None = None  # defaults to 2^d
    prior_shape: float = 2.0
    prior_rate: float = 10.0
    name: str = ""

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.variant not in POLICIES:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.map_mode not in MAP_MODES:
            raise ValueError(f"unknown map_mode {self.map_mode!r}")
        if self.beta_mode not in (BETA_THEORETICAL, BETA_EMPIRICAL):
            raise ValueError(f"unknown beta_mode {self.beta_mode!r}")
        for key in _POSITIVE:
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if theta0.size == 0 or not np.all((theta0 > 0) & (theta0 < math.inf)):
            raise ValueError(f"theta0 must be positive and finite, got {self.theta0!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam!r}")
        for key in ("delta", "reference_exponent"):
            value = getattr(self, key)
            if not 0 < value < 1:
                raise ValueError(f"{key} must lie in (0, 1), got {value!r}")
        if self.init_points is not None and self.init_points < 0:
            raise ValueError(f"init_points must be >= 0, got {self.init_points}")

    def theta0_vector(self, d: int) -> np.ndarray:
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if theta0.shape[0] == 1:
            theta0 = np.full(d, theta0[0])
        if theta0.shape[0] != d:
            raise ValueError(
                f"theta0 has {theta0.shape[0]} entries, objective is {d}-dimensional"
            )
        return theta0


@dataclass
class RunTrace:
    """Per-iteration record of one run; init rows carry negative indices."""

    dim: int
    name: str = ""
    iters: list = field(default_factory=list)
    X: list = field(default_factory=list)
    y: list = field(default_factory=list)
    beta_sqrt: list = field(default_factory=list)
    g: list = field(default_factory=list)
    b: list = field(default_factory=list)
    h: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    simple_regret: list = field(default_factory=list)
    cumulative_regret: list = field(default_factory=list)
    aborted: bool = False

    def append(self, it, x, y, bs, g, b, h, theta, simple, cumulative):
        self.iters.append(int(it))
        self.X.append(np.asarray(x, dtype=float))
        self.y.append(float(y))
        self.beta_sqrt.append(float(bs))
        self.g.append(float(g))
        self.b.append(float(b))
        self.h.append(float(h))
        self.theta.append(np.asarray(theta, dtype=float))
        self.simple_regret.append(float(simple))
        self.cumulative_regret.append(float(cumulative))

    def __len__(self):
        return len(self.iters)

    def bo_slice(self) -> np.ndarray:
        """Boolean mask selecting optimization iterations (iter >= 1)."""
        return np.asarray(self.iters) >= 1


def _sobol_candidates(d: int, n: int) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return qmc.Sobol(d, scramble=False).random(n)


def maximize_ucb(
    state: GaussianProcess, beta_sqrt: float, d: int, seed: int = 0
) -> np.ndarray:
    """Argmax of mu + beta^{1/2} sigma on the unit cube.

    Coarse scan (1024*d Sobol points plus seeded uniform extras, first-index
    tie-break) followed by coordinate refinement with a shrinking step; the
    result never scores below the best scan candidate.
    """
    if beta_sqrt <= 0:
        raise ValueError("beta_sqrt must be positive")

    def acq(Xq):
        mean, var = state.posterior(Xq)
        return mean + beta_sqrt * np.sqrt(var)

    cand = _sobol_candidates(d, _SCAN_PER_DIM * d)
    extra = make_rng(seed, tag="ucb-candidates").uniform(size=(_RANDOM_EXTRA, d))
    cand = np.vstack([cand, extra])
    vals = acq(cand)
    best_idx = int(np.argmax(vals))  # first max wins ties
    x = cand[best_idx].copy()
    best = float(vals[best_idx])

    step = _REFINE_STEP
    probes_dirs = np.vstack([np.eye(d), -np.eye(d)])
    for _ in range(_REFINE_ITERS):
        probes = np.clip(x + step * probes_dirs, 0.0, 1.0)
        pv = acq(probes)
        j = int(np.argmax(pv))
        if pv[j] > best:
            best = float(pv[j])
            x = probes[j]
        step *= _REFINE_SHRINK
    return x


class _RunState:
    """Mutable bookkeeping of one run, shared by the loop and its policy;
    construction evaluates the initial design."""

    def __init__(self, objective: ObjectiveSpec, config: AlgorithmConfig):
        self.objective = objective
        self.config = config
        d = objective.dim
        self.theta0 = config.theta0_vector(d)
        self.kernel0 = objective.kernel.with_lengthscales(self.theta0)
        self.gp = GaussianProcess(self.kernel0, config.noise_sigma)
        self.noise_rng = make_rng(config.seed, tag="noise")
        self.trace = RunTrace(dim=d, name=config.name or config.variant)
        self.best_f = -np.inf
        self.cumulative = 0.0
        self.prior = hyperparam.LengthscalePrior(
            config.prior_shape, config.prior_rate
        )
        # 2 beta_t^{1/2} sigma_t(x_t) of every optimization step so far
        self.widths: list[float] = []
        n_init = config.init_points
        if n_init is None:
            n_init = 2**d
        init_rng = make_rng(config.seed, tag="init")
        for j in range(n_init):
            x = init_rng.uniform(size=d)
            if not self.observe(j - n_init, x, 0.0, 1.0, 1.0, 1.0, self.theta0):
                break

    def observe(self, it, x, bs, g, b, h, theta) -> bool:
        """Evaluate x, add it to the GP and record it; False aborts the run."""
        f_val = evaluate_objective(self.objective, x)
        y = f_val + self.config.noise_sigma * self.noise_rng.standard_normal()
        if not np.isfinite(y):
            self.trace.aborted = True
            log.warning("objective returned non-finite value; aborting run")
            return False
        self.gp = self.gp.add_observation(x, y)
        self.best_f = max(self.best_f, f_val)
        self.cumulative += self.objective.f_max - f_val
        self.trace.append(
            it, x, y, bs, g, b, h, theta,
            self.objective.f_max - self.best_f, self.cumulative,
        )
        return True

    def beta(self, norm_bound: float, mi: float) -> float:
        if self.config.beta_mode == BETA_EMPIRICAL:
            return self.config.beta_constant
        params = ConfidenceParams(
            self.config.delta, self.config.noise_sigma, norm_bound
        )
        return beta_sqrt(params, mi)

    def map_theta(self) -> np.ndarray:
        return hyperparam.map_estimate(self.gp, self.prior, init=self.theta0).theta_map

    def ucb_choice(self, gp: GaussianProcess, norm_bound: float):
        """(beta^{1/2}, the UCB argmax, sigma there) under ``gp``."""
        bs = self.beta(norm_bound, gp.mutual_information())
        x = maximize_ucb(gp, bs, self.objective.dim, seed=self.config.seed)
        _, var = gp.posterior_mean_var(x)
        return bs, x, float(np.sqrt(var))


# A policy takes the run state and returns step(t) -> (norm_bound, g, b, h,
# theta_t), the hyperparameters of UCB step t; step may first replace
# state.gp with one under theta_t. The previous step's g is the last trace
# row's g (1 after the init rows).


def _agp_policy(state: _RunState):
    """Adaptive schedule: h solves estimate(h) = p(t); optional MAP step."""
    config = state.config
    d = state.objective.dim
    scaling = ScalingState(
        lam=config.lam,
        dim=d,
        theta0=state.theta0,
        b0=config.b0,
        reference_exponent=config.reference_exponent,
        gamma_exponent=(
            float(d)
            if state.kernel0.family == SQUARED_EXPONENTIAL
            else 2.0 * state.kernel0.nu + d
        ),
    )

    def step(t):
        theta_map = state.map_theta() if config.map_mode != MAP_OFF else None

        def hyperparameters(h):
            g, b = decompose(h, config.lam, d)
            theta, norm_bound = adaptation.scaled_hyperparameters(scaling, h)
            if config.map_mode == MAP_COMBINE_MAX:
                theta = hyperparam.combine_max(theta_map, state.theta0, g)
            elif config.map_mode == MAP_COMBINE_SCALE:
                theta = hyperparam.combine_scale(theta_map, g)
            return norm_bound, g, b, theta

        if config.estimator == REGRET_BOUND:
            mi_prev = state.gp.mutual_information()

            def estimator_eval(hh):
                return adaptation.regret_bound_estimate(
                    scaling, hh, t, mi_prev, state.beta, config.noise_sigma
                )
        else:

            def estimator_eval(hh):
                norm_bound, _, _, theta_h = hyperparameters(hh)
                gp_h = state.gp.set_kernel(state.kernel0.with_lengthscales(theta_h))
                bs_h, _, sigma_h = state.ucb_choice(gp_h, norm_bound)
                return adaptation.one_step_estimate(state.widths, (bs_h, sigma_h))

        h = adaptation.solve_h(scaling, t, estimator_eval)
        scaling.accept(h)
        norm_bound, g, b, theta_t = hyperparameters(h)
        state.gp = state.gp.set_kernel(state.kernel0.with_lengthscales(theta_t))
        return norm_bound, g, b, h, theta_t

    return step


def _fixed_policy(state: _RunState):
    """Schedule frozen at h = 1; with MAP on, the raw MAP lengthscales."""

    def step(t):
        theta_t = state.theta0
        if state.config.map_mode != MAP_OFF:
            theta_t = state.map_theta()
            state.gp = state.gp.set_kernel(state.kernel0.with_lengthscales(theta_t))
        return state.config.b0, 1.0, 1.0, 1.0, theta_t

    return step


def _wang_policy(state: _RunState):
    """Shrink lengthscales until sigma at the next input reaches kappa; no
    sublinear reference, no lower bound on lengthscales."""
    config = state.config

    def x_next_fn(gp_c):
        bs_c = state.beta(config.b0, gp_c.mutual_information())
        return maximize_ucb(gp_c, bs_c, state.objective.dim, seed=config.seed)

    def step(t):
        c = adaptation.wang_baseline_scale(state.gp, config.kappa, x_next_fn)
        g_total = state.trace.g[-1]
        if c > 1.0:
            # rescale the current kernel: rebuilding it from theta0 / g_total
            # differs in the last bits
            state.gp = state.gp.set_kernel(state.gp.kernel.scaled(c))
            g_total *= c
        return config.b0, g_total, 1.0, g_total, state.theta0 / g_total

    return step


POLICIES = {
    AGP_UCB: _agp_policy,
    FIXED_GP_UCB: _fixed_policy,
    WANG_SHRINK: _wang_policy,
}


def run(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """UCB loop: the variant's policy picks theta_t and the norm bound, then
    the loop maximizes mu + beta^{1/2} sigma, observes and records."""
    state = _RunState(objective, config)
    if state.trace.aborted:
        return state.trace
    policy = POLICIES[config.variant](state)
    for t in range(1, config.iterations + 1):
        norm_bound, g, b, h, theta_t = policy(t)
        bs, x_next, sigma = state.ucb_choice(state.gp, norm_bound)
        if not state.observe(t, x_next, bs, g, b, h, theta_t):
            break
        state.widths.append(2.0 * bs * sigma)
    return state.trace
