"""Optimization loops: the adaptive UCB algorithm and its baselines."""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import adaptation, hyperparam
from .adaptation import ESTIMATORS, REGRET_BOUND, ScalingState, Step, beta_sqrt
from .gp import GaussianProcess
from .kernels import KernelSpec
from .objectives import ObjectiveSpec, evaluate_objective, sobol_points
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

_POSITIVE = ("beta_constant", "b0", "noise_sigma", "prior_shape", "prior_rate")


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
        for key in ("iterations", "seed", "init_points"):
            value = getattr(self, key)
            # init_points None takes the default, 2^d
            if not isinstance(value, numbers.Integral) and (key, value) != ("init_points", None):
                raise ValueError(f"{key} must be an integer, got {value!r}")
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
        for key in ("delta", "reference_exponent", "kappa"):
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

    @classmethod
    @functools.cache  # append reads it for every row
    def columns(cls) -> tuple[str, ...]:
        """The trace's columns in CSV order: the names of the list fields."""
        return tuple(f.name for f in fields(cls) if f.default_factory is list)

    def append(self, it, x, y, bs, step: Step, simple, cumulative):
        """One row; g, b, h and theta are the step's fields of those names."""
        row = dict(step._asdict(), iters=it, X=x, y=y, beta_sqrt=bs,
                   simple_regret=simple, cumulative_regret=cumulative)
        for name in self.columns():
            value = row[name]  # X and theta are vectors, iters an int, the rest floats
            kind = int if name == "iters" else float if np.isscalar(value) else np.asarray
            getattr(self, name).append(kind(value))

    def __len__(self):
        return len(self.iters)

    def bo_slice(self) -> np.ndarray:
        """Boolean mask selecting optimization iterations (iter >= 1)."""
        return np.asarray(self.iters) >= 1


# A run scans with one (d, seed) throughout, so a few entries serve every
# caller; each holds (1024 d + 256) d floats.
@functools.lru_cache(maxsize=4)
def _scan_candidates(d: int, seed: int) -> np.ndarray:
    """Read-only scan set: 1024*d Sobol points, then the seeded uniform extras."""
    extra = make_rng(seed, tag="ucb-candidates").uniform(size=(_RANDOM_EXTRA, d))
    cand = np.vstack([sobol_points(d, _SCAN_PER_DIM * d), extra])
    cand.setflags(write=False)
    return cand


def maximize_ucb(
    state: GaussianProcess, beta_sqrt: float, *, seed: int = 0
) -> np.ndarray:
    """Argmax of mu + beta^{1/2} sigma on the unit cube.

    Coarse scan (1024*d Sobol points plus seeded uniform extras, first-index
    tie-break) followed by coordinate refinement with a shrinking step; the
    result never scores below the best scan candidate.
    """
    if not 0 < beta_sqrt < math.inf:
        raise ValueError("beta_sqrt must be positive")

    def acq(Xq):
        mean, var = state.posterior(Xq)
        return mean + beta_sqrt * np.sqrt(var)

    d = state.kernel.dim
    cand = _scan_candidates(d, seed)
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
        self.gp = GaussianProcess(KernelSpec(self.theta0), config.noise_sigma)
        self.noise_rng = make_rng(config.seed, tag="noise")
        self.trace = RunTrace(dim=d)
        self.best_f = -np.inf
        self.cumulative = 0.0
        self.prior = hyperparam.LengthscalePrior(
            config.prior_shape, config.prior_rate
        )
        # sum of 2 beta_t^{1/2} sigma_t(x_t) over the optimization steps so
        # far, added in step order
        self.frozen = 0.0
        # theta bytes -> (GP under theta on the current data, its mutual
        # information, beta^{1/2} -> (UCB argmax, sigma there)); the GP
        # keeps its scan for the choices of every beta
        self._memo: dict = {}
        n_init = config.init_points
        if n_init is None:
            n_init = 2**d
        init_rng = make_rng(config.seed, tag="init")
        init_step = Step(config.b0, 1.0, 1.0, 1.0, self.theta0)
        for j in range(n_init):
            x = init_rng.uniform(size=d)
            if not self.observe(j - n_init, x, 0.0, init_step):
                break

    def observe(self, it, x, bs, step: Step) -> bool:
        """Evaluate x, add it to the GP and record it; False aborts the run."""
        self._memo.clear()
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
            it, x, y, bs, step, self.objective.f_max - self.best_f, self.cumulative
        )
        return True

    def beta(self, norm_bound: float, mi: float) -> float:
        if self.config.beta_mode == BETA_EMPIRICAL:
            return self.config.beta_constant
        return beta_sqrt(norm_bound, mi, self.config.noise_sigma, self.config.delta)

    def map_theta(self) -> np.ndarray:
        return hyperparam.map_estimate(self.gp, self.prior, init=self.theta0).theta_map

    def choice(self, step: Step):
        """(GP under the step's theta, beta^{1/2}, the UCB argmax, sigma there)
        on the data so far; memoized by theta and beta^{1/2}, which alone
        decide the step, until the next observation."""
        key = step.theta.tobytes()
        if key not in self._memo:
            gp = self.gp.set_kernel(KernelSpec(step.theta))
            self._memo[key] = gp, gp.mutual_information(), {}
        gp, mi, choices = self._memo[key]
        bs = self.beta(step.norm_bound, mi)
        if bs not in choices:
            x = maximize_ucb(gp, bs, seed=self.config.seed)
            _, var = gp.posterior_mean_var(x)
            choices[bs] = x, float(np.sqrt(var))
        return (gp, bs, *choices[bs])


# A policy takes the run state and returns step(t) -> the Step of UCB step t.


def _agp_policy(state: _RunState):
    """Adaptive schedule: h solves estimate(h) = p(t); optional MAP step."""
    config = state.config
    scaling = ScalingState(
        lam=config.lam,
        theta0=state.theta0,
        b0=config.b0,
        reference_exponent=config.reference_exponent,
    )

    def step(t):
        theta_map = state.map_theta() if config.map_mode != MAP_OFF else None

        def hyperparameters(h):
            step = adaptation.scaled_hyperparameters(scaling, h)
            theta = step.theta
            if config.map_mode == MAP_COMBINE_MAX:
                theta = hyperparam.combine_max(theta_map, state.theta0, step.g)
            elif config.map_mode == MAP_COMBINE_SCALE:
                theta = hyperparam.combine_scale(theta_map, step.g)
            return step._replace(theta=theta)

        if config.estimator == REGRET_BOUND:
            mi_prev = state.gp.mutual_information()

            def estimator_eval(hh):
                return adaptation.regret_bound_estimate(
                    scaling, hh, t, mi_prev, state.beta, config.noise_sigma
                )
        else:

            def estimator_eval(hh):
                _, bs_h, _, sigma_h = state.choice(hyperparameters(hh))
                return adaptation.one_step_estimate(state.frozen, bs_h, sigma_h)

        h = adaptation.solve_h(scaling, t, estimator_eval)
        scaling.accept(h)
        return hyperparameters(h)

    return step


def _fixed_policy(state: _RunState):
    """Schedule frozen at h = 1; with MAP on, the raw MAP lengthscales."""

    def step(t):
        theta_t = state.theta0
        if state.config.map_mode != MAP_OFF:
            theta_t = state.map_theta()
        return Step(state.config.b0, 1.0, 1.0, 1.0, theta_t)

    return step


def _wang_policy(state: _RunState):
    """Shrink lengthscales until sigma at the next input reaches kappa; no
    sublinear reference, no lower bound on lengthscales."""
    config = state.config
    g = 1.0  # the previous step's g; 1 for the init rows

    def shrunk(c):  # the step with lengthscales c times shorter than g's
        return Step(config.b0, g * c, 1.0, g * c, state.theta0 / (g * c))

    def step(t):
        nonlocal g
        g *= adaptation.wang_baseline_scale(
            config.kappa, lambda c: state.choice(shrunk(c))[3])
        return shrunk(1.0)  # the step at the new g

    return step


POLICIES = {
    AGP_UCB: _agp_policy,
    FIXED_GP_UCB: _fixed_policy,
    WANG_SHRINK: _wang_policy,
}


def run(objective: ObjectiveSpec, config: AlgorithmConfig) -> RunTrace:
    """UCB loop: the variant's policy picks theta_t and the norm bound, then
    the loop builds the GP under theta_t, maximizes mu + beta^{1/2} sigma,
    observes and records."""
    state = _RunState(objective, config)
    if state.trace.aborted:
        return state.trace
    policy = POLICIES[config.variant](state)
    for t in range(1, config.iterations + 1):
        step = policy(t)
        state.gp, bs, x_next, sigma = state.choice(step)
        if not state.observe(t, x_next, bs, step):
            break
        state.frozen += 2.0 * bs * sigma
    return state.trace
