"""Test functions with known ground truth.

Objectives are representer-point expansions f(x) = sum_i w_i k(x, c_i) on
the unit cube, so their RKHS norm is known exactly and the optimum can be
located numerically once, at construction time.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import kernels
from .errors import InvalidSpecError
from .gp import chol_with_jitter
from .kernels import KernelSpec
from .rng import make_rng


@dataclass(frozen=True)
class ObjectiveSpec:
    """Kernel expansion with known norm, maximum, and maximizer."""

    kernel: KernelSpec
    centers: np.ndarray  # (m, d)
    weights: np.ndarray  # (m,)
    true_norm: float
    f_max: float
    x_star: np.ndarray
    f_min: float

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def value_range(self) -> float:
        return self.f_max - self.f_min

    def __call__(self, x):
        return evaluate_objective(self, x)

    def to_dict(self) -> dict:
        return {
            # the one kernel family, named for readers that key on it
            # (bench/checks.py's kernel_matrix)
            "kernel": {
                "family": "se",
                "lengthscales": self.kernel.lengthscales.tolist(),
                "nu": None,
            },
            "centers": self.centers.tolist(),
            "weights": self.weights.tolist(),
            "true_norm": self.true_norm,
            "f_max": self.f_max,
            "x_star": self.x_star.tolist(),
            "f_min": self.f_min,
        }


def evaluate_objective(spec: ObjectiveSpec, x):
    """Noiseless f(x) = sum_i w_i k(x, c_i); accepts (d,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    vals = kernels.cross_gram(spec.kernel, np.atleast_2d(x), spec.centers) @ spec.weights
    return float(vals[0]) if single else vals


# SciPy's table behind qmc.Sobol: each dimension's primitive polynomial and
# initial direction numbers (Joe & Kuo)
_SOBOL_TABLE = os.path.join(
    os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz"
)


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """(30, d) read-only direction numbers of qmc.Sobol(d)'s 30-bit points.

    Dimension 0's are all 1; dimension i > 0 extends its initial numbers by
    Bratley & Fox's (1988) recursion. Bits are shifted into place after it.
    """
    with np.load(_SOBOL_TABLE) as table:
        poly, vinit = table["poly"], table["vinit"]
    if not (np.issubdtype(type(d), np.integer) and 0 <= d <= len(poly)):
        raise ValueError(f"d must be an integer in [0, {len(poly)}], got {d!r}")
    v = np.ones((30, d), dtype=np.int64)
    for i in range(1, d):
        p = int(poly[i])
        m = p.bit_length() - 1
        col = vinit[i, :m].tolist()
        for j in range(m, 30):
            new = col[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= col[j - k - 1] << (k + 1)
            col.append(new)
        v[:, i] = col
    v <<= np.arange(29, -1, -1)[:, None]
    v.flags.writeable = False
    return v


def sobol_points(d: int, n: int, seed: int | None = None) -> np.ndarray:
    """First n Sobol points in [0,1]^d, scrambled if seeded (no warnings).

    Unseeded points are built in Gray-code order from SciPy's own
    direction-number file and equal ``qmc.Sobol(d, scramble=False)``'s bit
    for bit. Seeded points come from ``qmc.Sobol(d, scramble=True)``, which
    imports ``scipy.stats`` on first use. As with ``qmc``, n < 0 or d
    outside [0, 21201] raises ValueError, and a non-integer n TypeError.
    """
    if seed is not None:
        from scipy.stats import qmc

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n need not be a power of two
            return qmc.Sobol(d, scramble=True, seed=seed).random(n)
    v = _sobol_directions(d)
    x = np.zeros((n, d), dtype=np.int64)
    # point k is point k - 1 XOR the column of k's lowest set bit
    k = np.arange(1, n)
    x[1:] = np.bitwise_xor.accumulate(v[np.frexp(k & -k)[1] - 1], axis=0)
    return x * 2.0**-30


def _extrema_on_cube(kernel, centers, weights):
    """(argmax, max, min) of the expansion on [0,1]^d.

    A scan (a 10,000-point grid in 1-d, 4096 Sobol points otherwise) picks
    the starts: the best scan point in 1-d; in d > 1 the 8 best scan points
    and every center whose weight has the extremum's sign, since the
    expansion's peaks and troughs lie near those centers. All starts then
    climb together by coordinate search: step 0.05, shrunk by 0.6 for a
    start that found no better probe, for 60 rounds.
    """
    d = kernel.dim
    dirs = np.vstack([np.eye(d), -np.eye(d)])

    def f(X):
        return kernels.cross_gram(kernel, X, centers) @ weights

    def climb(x, sign):
        """Best (point, value) of sign * f reached from the starts x."""
        best = sign * f(x)
        step = np.full(len(x), 0.05)
        rows = np.arange(len(x))
        for _ in range(60):
            probes = np.clip(x[:, None, :] + step[:, None, None] * dirs, 0.0, 1.0)
            pv = sign * f(probes.reshape(-1, d)).reshape(len(x), 2 * d)
            j = np.argmax(pv, axis=1)
            moved = pv[rows, j] > best
            best[moved] = pv[rows, j][moved]
            x[moved] = probes[rows, j][moved]
            step[~moved] *= 0.6
        i = int(np.argmax(best))  # first start wins ties
        return x[i], sign * float(best[i])

    cand = np.linspace(0.0, 1.0, 10_000)[:, None] if d == 1 else sobol_points(d, 4096)
    order = np.argsort(f(cand))
    n = 1 if d == 1 else 8
    max_starts, min_starts = cand[order[-n:]], cand[order[:n]]
    if d > 1:
        max_starts = np.vstack([max_starts, centers[weights > 0]])
        min_starts = np.vstack([min_starts, centers[weights < 0]])
    # two batches, not one: BLAS row blocking would change the 1-d bits
    x_max, f_max = climb(max_starts, 1.0)
    _, f_min = climb(min_starts, -1.0)
    return x_max, f_max, f_min


def _build_spec(kernel, centers, weights, target_norm):
    norm = kernels.rkhs_norm_of_expansion(kernel, centers, weights)
    if norm < 1e-12:
        raise InvalidSpecError("degenerate expansion with near-zero norm")
    weights = weights * (target_norm / norm)
    x_star, f_max, f_min = _extrema_on_cube(kernel, centers, weights)
    return ObjectiveSpec(
        kernel=kernel,
        centers=np.asarray(centers, dtype=float),
        weights=np.asarray(weights, dtype=float),
        true_norm=float(target_norm),
        f_max=f_max,
        x_star=np.asarray(x_star, dtype=float),
        f_min=f_min,
    )


def make_rkhs_function(
    kernel: KernelSpec, m: int, target_norm: float, seed: int
) -> ObjectiveSpec:
    """Random expansion with uniform centers, rescaled to the target norm."""
    if m < 1 or not 0 < target_norm < math.inf:
        raise InvalidSpecError("need m >= 1 and a positive target norm")
    d = kernel.dim
    for attempt in range(10):
        rng = make_rng(seed + attempt, tag="rkhs-function")
        centers = rng.uniform(size=(m, d))
        weights = rng.standard_normal(m)
        try:
            return _build_spec(kernel, centers, weights, target_norm)
        except InvalidSpecError:
            continue
    raise InvalidSpecError(
        f"could not draw a non-degenerate expansion after 10 attempts (seed {seed})"
    )


# Gram-eigenvalue cutoff (relative to the largest) below which sample
# directions are dropped; keeps the grid interpolation well-posed while
# discarding only numerically negligible components of the sample.
_EIG_CUT = 1e-9


def make_gp_sample_function(
    kernel: KernelSpec, grid_size: int, target_norm: float, seed: int
) -> ObjectiveSpec:
    """Interpolant of a GP sample at grid points, rescaled to the target norm.

    Function values are drawn from the prior at finitely many grid points and
    interpolated with the same kernel, which keeps the result inside the RKHS.
    The draw happens in the Gram eigenbasis with near-null directions
    discarded, so the representer weights stay moderate and the rescaled norm
    is exact to measurement precision.
    """
    if grid_size < 2:
        raise InvalidSpecError("grid_size must be >= 2")
    if not 0 < target_norm < math.inf:
        raise InvalidSpecError("need a positive target norm")
    d = kernel.dim
    rng = make_rng(seed, tag="gp-sample")
    if d == 1:
        grid = np.linspace(0.0, 1.0, grid_size)[:, None]
    else:
        # scrambled so the grid does not alias the acquisition scan lattice
        grid = sobol_points(d, grid_size, seed=int(rng.integers(2**32)))
    K = kernels.gram_matrix(kernel, grid)
    f_grid = chol_with_jitter(K)[0] @ rng.standard_normal(grid_size)
    # interpolation weights solve K w = f_grid; projecting out near-null
    # Gram directions keeps the weights moderate while discarding only a
    # numerically negligible component of the sample
    evals, vecs = np.linalg.eigh(K)
    coef = vecs.T @ f_grid
    keep = evals > _EIG_CUT * evals[-1]
    weights = vecs[:, keep] @ (coef[keep] / evals[keep])
    return _build_spec(kernel, grid, weights, target_norm)


def bump_linear_preset() -> ObjectiveSpec:
    """One-dimensional rising trend with a narrow off-trend bump.

    The global maximum sits on the bump near x = 0.2 while the trend creates
    a competing local maximum at the right edge; norm-rescaled so the
    expansion has RKHS norm 2 under a squared-exponential kernel with
    lengthscale 0.1.
    """
    kernel = KernelSpec(lengthscales=np.array([0.1]))
    trend_centers = np.linspace(0.0, 1.0, 21)
    trend_weights = 0.12 * trend_centers
    centers = np.concatenate([trend_centers, [0.2]])[:, None]
    weights = np.concatenate([trend_weights, [0.55]])
    return _build_spec(kernel, centers, weights, target_norm=2.0)
