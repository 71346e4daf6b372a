"""Exact Gaussian-process posterior inference on accumulated observations.

States are immutable: adding data or swapping in another kernel returns a new
object with a freshly built Cholesky factorization L L^T = K + sigma^2 I.

Factorization calls LAPACK's dpotrf and dtrtrs directly: the ``scipy.linalg``
wrappers validate and copy their input on every call, and MAP makes thousands
of these calls. For the same reason sigma^2, and jitter after a failed try,
go onto the diagonal of one copy of K, with no identity matrix. A non-finite
matrix or evidence raises ``ValueError``.

``posterior`` is the acquisition's inner loop, so it works by matrix
products: the query-data distances come from one GEMM
(``kernels.sq_distance_by_terms``), and the variance from L^-1. A state
computes L^-1 and its data's side of the distance product on its first query
and keeps them.

A query set that is a read-only array owning its data, such as the
acquisition's scan candidates, is carried across ``add_observation``,
recognised by identity. A child has its parent's kernel and noise, and, if
factorized with the same jitter, its factor is the parent's plus one row l.
So the rows V = L^-1 k(X, cand), the mean and the variance extend by one
row v = (k(cand, x_t) - l[:t-1] V) / l[t-1] in O(n t), in place of the
full O(n t^2) pass. A state keeps the mean and variance of its query of
the set, so querying it again (UCB under another beta) makes no second
pass. A state made by ``add_observation`` keeps V as well, from its first
full pass on; one from the constructor or ``set_kernel`` does not, so a
kernel that changes every step never pays for V. ``add_observation`` moves
the parent's scan to the child and extends it there if it holds V and the
jitter is unchanged, so each scan has one owner and callers get copies. An
extended row differs from a rescan's in the last bits (under 1e-12 over
120 steps), so traces keep their bits unless an argmax ties within that
rounding.

Its results differ from the difference form's in the last bits. The Gram
matrix, the MAP objective and the objectives' values keep the difference form
(``kernels.sq_distance``), whose bits the Cholesky factor, the MAP search,
``f_max`` and the golden traces depend on. That form also makes every Gram
matrix exactly symmetric with a unit diagonal, so nothing symmetrizes it
before factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import kernels
from .errors import DimensionMismatchError, InvalidObservationError, SingularModelError
from .kernels import KernelSpec

_BASE_JITTER = 1e-10
_MAX_JITTER = 1e-6


def _add_to_diagonal(A: np.ndarray, c: float) -> np.ndarray:
    """A + c I as one copy of A, with the bits of ``A + c * np.eye(t)``."""
    A = A.copy()
    A.flat[:: A.shape[0] + 1] += c
    return A


def chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A's lower triangle and the jitter added to
    A's diagonal for it, escalating from 0 only on failure. A failure on a
    NaN or inf raises ``ValueError``; one that LAPACK does not flag passes
    into the factor, whose log determinant ``factorize`` checks."""
    jitter = 0.0
    while jitter <= _MAX_JITTER:
        # dpotrf factors a copy, so A itself serves the unjittered try
        M = A if jitter == 0.0 else _add_to_diagonal(A, jitter)
        L, info = dpotrf(M, lower=1, clean=1)
        if info == 0:
            return L, jitter
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix to factorize holds a NaN or inf")
        jitter = _BASE_JITTER if jitter == 0.0 else jitter * 10.0
    raise SingularModelError(
        f"Cholesky failed for {A.shape[0]}x{A.shape[0]} matrix even with "
        f"jitter {_MAX_JITTER}"
    )


def factorize(K: np.ndarray, noise_sigma: float, y: np.ndarray):
    """L, z = L^-1 y, alpha = (L L^T)^-1 y, the jitter and the log evidence
    of y for L L^T = K + (sigma^2 + jitter) I."""
    t = y.shape[0]
    if t == 0:
        return np.zeros((0, 0)), np.zeros(0), np.zeros(0), 0.0, 0.0
    L, jitter = chol_with_jitter(_add_to_diagonal(K, noise_sigma**2))
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
    return L, z, alpha, jitter, lml


@dataclass(eq=False)
class _Scan:
    """A state's query of a carried candidate set ``cand``: ``mean`` and
    ``var`` the unclipped posterior there and, in a state made by
    ``add_observation``, ``V`` (t, n) the rows L^-1 k(X, cand)."""

    cand: np.ndarray
    V: np.ndarray | None
    mean: np.ndarray
    var: np.ndarray


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
        if not 0 < noise_sigma < math.inf:
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
        K = kernels.gram_matrix(self.kernel, self.X)
        self._L, self._z, self._alpha, self._jitter, self._lml = factorize(
            K, self.noise_sigma, self.y
        )
        # L^-1 and X's product_terms, built by the first posterior query
        self._L_inv = self._terms = None
        self._scan = None  # this state's query of a carried set
        self._keeps_V = False  # set on the states add_observation makes

    @property
    def num_observations(self) -> int:
        return self.X.shape[0]

    def add_observation(self, x, y: float) -> "GaussianProcess":
        """New state with (x, y) appended; factorization fully rebuilt. The
        child keeps V, and this state's carried scan moves to it, extended
        if it holds V and the jitter is unchanged, else dropped."""
        if not np.isfinite(y):
            raise InvalidObservationError(f"non-finite observation {y}")
        x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
        if x.shape[1] != self.kernel.dim:
            raise DimensionMismatchError(
                f"data dimension {x.shape[1]} != kernel dimension {self.kernel.dim}"
            )
        X = np.vstack([self.X, x]) if self.num_observations else x
        yv = np.append(self.y, float(y))
        child = GaussianProcess(self.kernel, self.noise_sigma, X, yv)
        child._keeps_V = True
        scan, self._scan = self._scan, None
        if scan is not None and scan.V is not None and child._jitter == self._jitter:
            child._scan = child._extend(scan)
        return child

    def set_kernel(self, kernel: KernelSpec) -> "GaussianProcess":
        """Same data reinterpreted under a new prior covariance; this state
        itself if the kernel is unchanged."""
        if np.array_equal(kernel.lengthscales, self.kernel.lengthscales):
            return self
        return GaussianProcess(kernel, self.noise_sigma, self.X, self.y)

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at a batch of query points (n, d)."""
        Xq = kernels._check_points(self.kernel, Xq)
        n = Xq.shape[0]
        if self.num_observations == 0:
            return np.zeros(n), np.ones(n)
        # only a read-only array that owns its data cannot change under a scan
        if Xq.flags.writeable or not Xq.flags.owndata:
            mean, var, _ = self._posterior_pass(Xq)
            return mean, np.clip(var, 0.0, 1.0, out=var)
        scan = self._carried_scan(Xq)
        # copies: the scan serves this state's later queries, and its arrays
        # move on to a child that extends them
        return scan.mean.copy(), np.clip(scan.var, 0.0, 1.0)

    def _carried_scan(self, cand: np.ndarray) -> _Scan:
        """This state's scan of the read-only set cand: the one it holds, or
        a full pass, whose V is retained if add_observation made the state."""
        if self._scan is not None and self._scan.cand is cand:
            return self._scan
        mean, var, V = self._posterior_pass(cand)
        # C-contiguous (t, n), which _extend's resize needs
        self._scan = _Scan(cand, V.T.copy() if self._keeps_V else None, mean, var)
        return self._scan

    def _extend(self, scan: _Scan) -> _Scan:
        """The parent's scan, moved here, with this state's last observation
        added in place: the factor gains one row l, so the new row of V is
        (k(cand, x_t) - l[:t-1] V) / l[t-1]; O(n t)."""
        V = scan.V
        t = self.num_observations
        n = V.shape[1]
        ls = self.kernel.lengthscales
        sq = kernels.sq_distance_by_terms(scan.cand, kernels.product_terms(self.X[t - 1 :], ls), ls)
        k = kernels.profile(sq)[:, 0]
        l = self._L[t - 1, :t]
        v = (k - l[: t - 1] @ V) / l[t - 1]
        # resize reallocates: remapped, not copied, while V has a mapping of
        # its own, but copied every step once the allocator has put V on the
        # heap (ROADMAP item 6: spare rows would end that dependence)
        V.resize((t, n), refcheck=False)
        V[t - 1] = v
        scan.mean += v * self._z[t - 1]
        scan.var -= v * v
        return scan

    def _posterior_pass(self, Xq: np.ndarray):
        """Mean, unclipped variance and V (n, t), row i L^-1 k(X, x_i)."""
        t = self.num_observations
        if self._L_inv is None:
            self._L_inv, _ = dtrtrs(self._L, np.eye(t), lower=1)
            self._terms = kernels.product_terms(self.X, self.kernel.lengthscales)
        sq = kernels.sq_distance_by_terms(Xq, self._terms, self.kernel.lengthscales)
        Kx = kernels.profile(sq)  # (n, t)
        mean = Kx @ self._alpha
        # written over sq, which is no longer needed, to spare one fresh
        # (n, t) array
        V = np.matmul(Kx, self._L_inv.T, out=sq)
        return mean, 1.0 - np.einsum("nt,nt->n", V, V), V

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
