"""MAP lengthscale estimation and its combination with the schedule."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatchError, SingularModelError
from .gp import GaussianProcess, factorize

log = logging.getLogger(__name__)

# Search box for lengthscales (inputs live on the unit cube).
BOX_LOW = 1e-3
BOX_HIGH = 1e2

# MAP estimates may move at most one decade away from the initial guess.
TRUNCATION_FACTOR = 10.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SWEEPS = 3
_GOLDEN_ITERS = 30


@dataclass(frozen=True)
class LengthscalePrior:
    """Independent gamma prior per lengthscale dimension."""

    shape: float = 2.0
    rate: float = 10.0

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("gamma shape and rate must be positive")

    @property
    def mode(self) -> float:
        return max(self.shape - 1.0, 0.0) / self.rate

    def log_density(self, theta: np.ndarray) -> float:
        # unnormalized: the constant does not affect the MAP location
        return float(
            np.sum((self.shape - 1.0) * np.log(theta) - self.rate * theta)
        )


@dataclass(frozen=True)
class MapResult:
    theta_map: np.ndarray
    log_posterior: float


def _log_posterior(state: GaussianProcess, prior: LengthscalePrior):
    """theta -> log posterior, bit-identical to a refit; -inf if singular."""
    diff = state.X[:, None, :] - state.X[None, :, :]

    def objective(theta: np.ndarray) -> float:
        K = kernels.profile(kernels.sq_distance(diff, theta))
        try:
            *_, lml = factorize(K, state.noise_sigma, state.y)
        except SingularModelError:
            return -math.inf
        return lml + prior.log_density(theta)

    return objective


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximize f on [lo, hi] by golden-section search; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def map_estimate(
    state: GaussianProcess, prior: LengthscalePrior, init
) -> MapResult:
    """MAP lengthscales via multi-start coordinate descent in log space.

    The search box is [1e-3, 100] per dimension, tightened to within one
    decade of ``init``. Deterministic: up to five fixed starts, in order
    init, the prior mode, the box's geometric middle, init / 3 and init * 3,
    each clipped to the box and run once however often it recurs; three
    coordinate sweeps each, golden-section per coordinate. A line search
    depends only on its coordinate and the others' values, so each is
    memoized per call on those: the starts repeat the same searches, and in
    1-d every search is the same one. ``init`` holds one positive, finite
    lengthscale per dimension of the state.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    d = init.shape[0]
    if init.shape != (state.kernel.dim,):
        raise DimensionMismatchError(
            f"init has shape {init.shape}, kernel dimension is {state.kernel.dim}"
        )
    if not np.all((init > 0) & (init < math.inf)):
        raise ValueError(f"init must be positive and finite, got {init}")
    lo = np.maximum(BOX_LOW, init / TRUNCATION_FACTOR)
    hi = np.minimum(BOX_HIGH, init * TRUNCATION_FACTOR)
    mode = np.full(d, prior.mode if prior.mode > 0 else BOX_LOW)
    starts: dict = {}  # theta bytes -> start, in order, without repeats
    for start in (init, mode, np.sqrt(lo * hi), init / 3.0, init * 3.0):
        start = np.clip(start, lo, hi)
        starts.setdefault(start.tobytes(), start)
    objective = _log_posterior(state, prior)

    best = None
    searches: dict = {}  # (i, theta without coordinate i) -> (x, f(x))
    for theta in starts.values():
        val = objective(theta)
        if not math.isfinite(val):
            if best is None:
                log.warning("MAP objective non-finite at init; returning init")
                return MapResult(theta, val)
            continue
        for _ in range(_SWEEPS):
            for i in range(d):
                def f(log_ti, i=i, theta=theta):
                    cand = theta.copy()
                    cand[i] = math.exp(log_ti)
                    return objective(cand)

                key = (i, np.delete(theta, i).tobytes())
                if key not in searches:
                    searches[key] = _golden_section(
                        f, math.log(lo[i]), math.log(hi[i])
                    )
                x, fx = searches[key]
                if fx > val:
                    theta[i] = math.exp(x)
                    val = fx
        if best is None or val > best.log_posterior:
            best = MapResult(theta, val)

    return best


def combine_max(theta_map, theta0, g: float) -> np.ndarray:
    """Elementwise min(theta_map, theta0 / g): schedule as an upper bound."""
    if not 1 <= g < math.inf:
        raise ValueError("g must be >= 1")
    theta_map = np.atleast_1d(np.asarray(theta_map, dtype=float))
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    return np.minimum(theta_map, theta0 / g)


def combine_scale(theta_map, g: float) -> np.ndarray:
    """Scale the MAP estimate itself down by max(g, 1)."""
    if not g < math.inf:
        raise ValueError(f"g must be finite, got {g}")
    theta_map = np.atleast_1d(np.asarray(theta_map, dtype=float))
    return theta_map / max(g, 1.0)
