"""Exact Gaussian-process posterior inference on accumulated observations.

States are immutable: adding data or swapping in another kernel returns a new
object with a freshly built Cholesky factorization L L^T = K + sigma^2 I.

Factorization calls LAPACK's dpotrf and dtrtrs directly: the ``scipy.linalg``
wrappers validate and copy their input on every call, and MAP makes thousands
of these calls. A non-finite matrix or evidence raises ``ValueError``.

``posterior`` is the acquisition's inner loop, so it works by matrix
products: the query-data distances come from one GEMM
(``kernels.sq_distance_by_product``), and the variance from L^-1, which a
state computes on its first query and keeps. It takes the queries in blocks of
``_BLOCK_ROWS`` (512) rows or a multiple, whose (rows, t) temporaries are small
enough to reuse memory instead of faulting in fresh pages, and a row's bits
equal the unblocked form's.
Its results differ from the difference form's in the last bits. The Gram
matrix, the MAP objective and the objectives' values keep the difference form
(``kernels.sq_distance``), whose bits the Cholesky factor, the MAP search,
``f_max`` and the golden traces depend on. That form also makes every Gram
matrix exactly symmetric with a unit diagonal, so nothing symmetrizes it
before factorization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import kernels
from .errors import DimensionMismatchError, InvalidObservationError, SingularModelError
from .kernels import KernelSpec

_BASE_JITTER = 1e-10
_MAX_JITTER = 1e-6
# Query rows per posterior block. At t = 100 a 4352-row scan's fresh (n, t)
# arrays take 3.5 MB each, and their page faults cost more than the
# arithmetic; a 512-row block's 400 KB arrays reuse memory the allocator holds.
_BLOCK_ROWS = 512
# OpenBLAS computes a GEMM of at most 100^3 multiply-adds with a small-matrix
# kernel, which rounds differently from its general one. A block's L^-1
# product is kept above this size, so a row the whole batch would send through
# the general kernel goes through it in its block too.
_SMALL_GEMM = 100**3


def chol_with_jitter(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A's lower triangle, adding escalating jitter
    only on failure. A failure on a NaN or inf raises ``ValueError``; one that
    LAPACK does not flag passes into the factor, whose log determinant
    ``factorize`` checks."""
    jitter = 0.0
    eye = np.eye(A.shape[0])
    while jitter <= _MAX_JITTER:
        L, info = dpotrf(A + jitter * eye, lower=1, clean=1)
        if info == 0:
            return L
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix to factorize holds a NaN or inf")
        jitter = _BASE_JITTER if jitter == 0.0 else jitter * 10.0
    raise SingularModelError(
        f"Cholesky failed for {A.shape[0]}x{A.shape[0]} matrix even with "
        f"jitter {_MAX_JITTER}"
    )


def factorize(K: np.ndarray, noise_sigma: float, y: np.ndarray):
    """L, alpha = (L L^T)^-1 y and the log evidence of y for L L^T = K + sigma^2 I."""
    t = y.shape[0]
    if t == 0:
        return np.zeros((0, 0)), np.zeros(0), 0.0
    L = chol_with_jitter(K + noise_sigma**2 * np.eye(t))
    # two triangular solves, the second with trans=1: dpotrs would take one
    # call but rounds alpha differently, and the golden traces record these bits
    z, _ = dtrtrs(L, y, lower=1)
    alpha, _ = dtrtrs(L, z, lower=1, trans=1)
    fit = -0.5 * float(y @ alpha)
    logdet = float(np.sum(np.log(np.diag(L))))
    lml = fit - logdet - 0.5 * t * math.log(2.0 * math.pi)
    # a NaN or inf in K's lower triangle or in y reaches log det or the fit
    if not math.isfinite(lml):
        raise ValueError("non-finite evidence: K or y holds a NaN or inf")
    return L, alpha, lml


class GaussianProcess:
    """Zero-mean GP conditioned on noisy observations.

    Parameters
    ----------
    kernel:
        Prior covariance specification (unit variance).
    noise_sigma:
        Observation-noise standard deviation, > 0.
    X, y:
        Optional initial data, shapes (t, d) and (t,).
    """

    def __init__(self, kernel: KernelSpec, noise_sigma: float, X=None, y=None):
        if noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        self.kernel = kernel
        self.noise_sigma = float(noise_sigma)
        if X is None:
            X = np.zeros((0, kernel.dim))
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if y is None:
            y = np.zeros(0)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y lengths differ")
        if X.shape[0] and X.shape[1] != kernel.dim:
            raise DimensionMismatchError(
                f"data dimension {X.shape[1]} != kernel dimension {kernel.dim}"
            )
        if y.size and not np.all(np.isfinite(y)):
            raise InvalidObservationError("observations must be finite")
        self.X = X
        self.y = y
        self._factorize()
        self._L_inv = None  # L^-1, built by the first posterior query; never stale

    def _factorize(self):
        K = kernels.gram_matrix(self.kernel, self.X)
        self._L, self._alpha, self._lml = factorize(K, self.noise_sigma, self.y)

    @property
    def num_observations(self) -> int:
        return self.X.shape[0]

    def add_observation(self, x, y: float) -> "GaussianProcess":
        """New state with (x, y) appended; factorization fully rebuilt."""
        if not np.isfinite(y):
            raise InvalidObservationError(f"non-finite observation {y}")
        x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
        X = np.vstack([self.X, x]) if self.num_observations else x
        yv = np.append(self.y, float(y))
        return GaussianProcess(self.kernel, self.noise_sigma, X, yv)

    def set_kernel(self, kernel: KernelSpec) -> "GaussianProcess":
        """Same data reinterpreted under a new prior covariance; this state
        itself if the kernel is unchanged."""
        same = (kernel.family, kernel.nu) == (self.kernel.family, self.kernel.nu)
        if same and np.array_equal(kernel.lengthscales, self.kernel.lengthscales):
            return self
        return GaussianProcess(kernel, self.noise_sigma, self.X, self.y)

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at a batch of query points (n, d)."""
        Xq = kernels._check_points(self.kernel, Xq)
        n, t = Xq.shape[0], self.num_observations
        if t == 0:
            return np.zeros(n), np.ones(n)
        if self._L_inv is None:
            self._L_inv, _ = dtrtrs(self._L, np.eye(t), lower=1)
        # a multiple of _BLOCK_ROWS with rows * t^2 > _SMALL_GEMM; the last
        # block also takes the remainder, so no block is shorter
        block = _BLOCK_ROWS * (_SMALL_GEMM // (_BLOCK_ROWS * t * t) + 1)
        ends = [*range(block, n - block + 1, block), n]
        mean = np.empty(n)
        var = np.empty(n)
        for start, end in zip([0, *ends], ends):
            rows = slice(start, end)
            sq = kernels.sq_distance_by_product(Xq[rows], self.X, self.kernel.lengthscales)
            Kx = kernels.profile(self.kernel, sq)  # (rows, t)
            mean[rows] = Kx @ self._alpha
            # row i is L^-1 k(X, x_i); written over sq, which is no longer
            # needed, to spare one fresh (rows, t) array
            V = np.matmul(Kx, self._L_inv.T, out=sq)
            var[rows] = 1.0 - np.einsum("nt,nt->n", V, V)
        return mean, np.clip(var, 0.0, 1.0, out=var)

    def posterior_mean_var(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single query point."""
        mean, var = self.posterior(np.atleast_2d(x))
        return float(mean[0]), float(var[0])

    def mutual_information(self) -> float:
        """0.5 ln det(I + sigma^-2 K) over the collected inputs.

        Independent of the observation values; 0 for an empty state.
        """
        t = self.num_observations
        # det(K + s^2 I) / s^(2t) = det(I + K / s^2)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self._L))))
        return 0.5 * (logdet - 2.0 * t * math.log(self.noise_sigma))

    def log_marginal_likelihood(self) -> float:
        """Gaussian evidence of the observations under the current prior."""
        return self._lml
