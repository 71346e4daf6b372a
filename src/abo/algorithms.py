"""Optimization loops: the adaptive UCB algorithm and its baselines."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import adaptation, hyperparam
from .adaptation import ONE_STEP, REGRET_BOUND, ScalingState, decompose
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

BETA_THEORETICAL = "theoretical"
BETA_EMPIRICAL = "empirical"

_SCAN_PER_DIM = 1024
_RANDOM_EXTRA = 256
_REFINE_ITERS = 20
_REFINE_STEP = 0.25
_REFINE_SHRINK = 0.65


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box; optimization happens on the rescaled unit cube."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or np.any(lower >= upper):
            raise ValueError("domain needs lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def from_unit(self, u):
        return self.lower + np.asarray(u) * (self.upper - self.lower)

    @staticmethod
    def unit_cube(d: int) -> "Domain":
        return Domain(np.zeros(d), np.ones(d))


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
        if self.variant not in (AGP_UCB, FIXED_GP_UCB, WANG_SHRINK):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.estimator not in (REGRET_BOUND, ONE_STEP):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.map_mode not in (MAP_OFF, MAP_COMBINE_MAX, MAP_COMBINE_SCALE):
            raise ValueError(f"unknown map_mode {self.map_mode!r}")
        if self.beta_mode not in (BETA_THEORETICAL, BETA_EMPIRICAL):
            raise ValueError(f"unknown beta_mode {self.beta_mode!r}")

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
    state: GaussianProcess, beta_sqrt: float, domain: Domain, seed: int = 0
) -> np.ndarray:
    """Argmax of mu + beta^{1/2} sigma on the unit cube.

    Coarse scan (1024*d Sobol points plus seeded uniform extras, first-index
    tie-break) followed by coordinate refinement with a shrinking step; the
    result never scores below the best scan candidate.
    """
    if beta_sqrt <= 0:
        raise ValueError("beta_sqrt must be positive")
    d = domain.dim

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
    """Mutable bookkeeping shared by the three loop variants."""

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

    def observe(self, x) -> tuple[float, float]:
        f_val = evaluate_objective(self.objective, x)
        y = f_val + self.config.noise_sigma * self.noise_rng.standard_normal()
        return f_val, y

    def record(self, it, x, y, f_val, bs, g, b, h, theta):
        self.best_f = max(self.best_f, f_val)
        self.cumulative += self.objective.f_max - f_val
        self.trace.append(
            it, x, y, bs, g, b, h, theta,
            self.objective.f_max - self.best_f, self.cumulative,
        )

    def initialize(self):
        d = self.objective.dim
        n_init = self.config.init_points
        if n_init is None:
            n_init = 2**d
        init_rng = make_rng(self.config.seed, tag="init")
        for j in range(n_init):
            x = init_rng.uniform(size=d)
            f_val, y = self.observe(x)
            if not np.isfinite(y):
                self.trace.aborted = True
                log.warning("objective returned non-finite value; aborting run")
                return
            self.gp = self.gp.add_observation(x, y)
            self.record(
                j - n_init, x, y, f_val, 0.0, 1.0, 1.0, 1.0, self.theta0
            )

    def beta(self, norm_bound: float, mi: float) -> float:
        if self.config.beta_mode == BETA_EMPIRICAL:
            return self.config.beta_constant
        params = ConfidenceParams(
            self.config.delta, self.config.noise_sigma, norm_bound
        )
        return beta_sqrt(params, mi)


def _select_and_observe(run: _RunState, t, bs, g, b, h, theta):
    """UCB step shared by all variants; returns sigma at the chosen input."""
    domain = Domain.unit_cube(run.objective.dim)
    x_next = maximize_ucb(run.gp, bs, domain, seed=run.config.seed)
    _, var = run.gp.posterior_mean_var(x_next)
    f_val, y = run.observe(x_next)
    if not np.isfinite(y):
        run.trace.aborted = True
        log.warning("objective returned non-finite value; aborting run")
        return None
    run.gp = run.gp.add_observation(x_next, y)
    run.record(t, x_next, y, f_val, bs, g, b, h, theta)
    return float(np.sqrt(var))


def run_agp_ucb(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """Adaptive UCB loop with the expansion schedule and optional MAP step."""
    run = _RunState(objective, config)
    run.initialize()
    if run.trace.aborted:
        return run.trace
    d = objective.dim
    scaling = ScalingState(
        lam=config.lam,
        dim=d,
        theta0=run.theta0,
        b0=config.b0,
        reference_exponent=config.reference_exponent,
        gamma_exponent=(
            float(d)
            if run.kernel0.family == SQUARED_EXPONENTIAL
            else 2.0 * run.kernel0.nu + d
        ),
    )
    g_prev = 1.0
    one_step_history: list[float] = []
    domain = Domain.unit_cube(d)

    for t in range(1, config.iterations + 1):
        theta_map = None
        if config.map_mode != MAP_OFF:
            theta_map = hyperparam.map_estimate(
                run.gp, run.prior, init=run.theta0
            ).theta_map

        def combined_theta(g):
            if config.map_mode == MAP_COMBINE_MAX:
                return hyperparam.combine_max(theta_map, run.theta0, g)
            if config.map_mode == MAP_COMBINE_SCALE:
                return hyperparam.combine_scale(theta_map, g)
            return run.theta0 / g

        if config.estimator == REGRET_BOUND:
            mi_prev = run.gp.mutual_information()

            def estimator_eval(hh):
                return adaptation.regret_bound_estimate(
                    scaling, hh, t, mi_prev, run.beta,
                    config.noise_sigma, g_prev=g_prev,
                )
        else:

            def estimator_eval(hh):
                gg, bb = decompose(hh, config.lam, d)
                norm_bound = bb * gg**d * config.b0
                kernel_h = run.kernel0.with_lengthscales(combined_theta(gg))
                gp_h = run.gp.set_kernel(kernel_h)
                bs_h = run.beta(norm_bound, gp_h.mutual_information())
                x_h = maximize_ucb(gp_h, bs_h, domain, seed=config.seed)
                _, var_h = gp_h.posterior_mean_var(x_h)
                return adaptation.one_step_estimate(
                    one_step_history, (bs_h, float(np.sqrt(var_h)))
                )

        h = adaptation.solve_h(scaling, t, estimator_eval)
        scaling.accept(h)
        g, b = decompose(h, config.lam, d)
        norm_bound = b * g**d * config.b0
        theta_t = combined_theta(g)
        run.gp = run.gp.set_kernel(run.kernel0.with_lengthscales(theta_t))
        bs = run.beta(norm_bound, run.gp.mutual_information())
        sigma_next = _select_and_observe(run, t, bs, g, b, h, theta_t)
        if sigma_next is None:
            break
        one_step_history.append(2.0 * bs * sigma_next)
        g_prev = g
    return run.trace


def run_fixed_gp_ucb(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """UCB with the schedule frozen at h = 1 (fixed hyperparameters)."""
    run = _RunState(objective, config)
    run.initialize()
    if run.trace.aborted:
        return run.trace
    for t in range(1, config.iterations + 1):
        theta_t = run.theta0
        if config.map_mode != MAP_OFF:
            theta_t = hyperparam.map_estimate(
                run.gp, run.prior, init=run.theta0
            ).theta_map
            run.gp = run.gp.set_kernel(run.kernel0.with_lengthscales(theta_t))
        bs = run.beta(config.b0, run.gp.mutual_information())
        if _select_and_observe(run, t, bs, 1.0, 1.0, 1.0, theta_t) is None:
            break
    return run.trace


def run_wang_shrink(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """Baseline that shrinks lengthscales until sigma at the next input
    reaches kappa; no sublinear reference, no lower bound on lengthscales."""
    run = _RunState(objective, config)
    run.initialize()
    if run.trace.aborted:
        return run.trace
    d = objective.dim
    domain = Domain.unit_cube(d)
    g_total = 1.0
    for t in range(1, config.iterations + 1):

        def x_next_fn(gp_c):
            bs_c = run.beta(config.b0, gp_c.mutual_information())
            return maximize_ucb(gp_c, bs_c, domain, seed=config.seed)

        c = adaptation.wang_baseline_scale(run.gp, config.kappa, x_next_fn)
        if c > 1.0:
            run.gp = run.gp.set_kernel(run.gp.kernel.scaled(c))
            g_total *= c
        theta_t = run.theta0 / g_total
        bs = run.beta(config.b0, run.gp.mutual_information())
        if _select_and_observe(
            run, t, bs, g_total, 1.0, g_total, theta_t
        ) is None:
            break
    return run.trace


_RUNNERS = {
    AGP_UCB: run_agp_ucb,
    FIXED_GP_UCB: run_fixed_gp_ucb,
    WANG_SHRINK: run_wang_shrink,
}


def run(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """Dispatch to the configured variant."""
    return _RUNNERS[config.variant](objective, config)
