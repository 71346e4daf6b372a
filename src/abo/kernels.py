"""The squared-exponential (SE) kernel with per-dimension lengthscales.

The kernel is normalized so that k(x, x) = 1; any output scale is carried
by the RKHS norm bound instead of a signal variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidObservationError, InvalidSpecError, NumericalError


@dataclass(frozen=True)
class KernelSpec:
    """A read-only, strictly positive lengthscale vector."""

    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=float, copy=True))
        if ls.ndim != 1 or ls.size == 0:
            raise InvalidSpecError("lengthscales must be a nonempty 1-d vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise InvalidSpecError(
                f"lengthscales must be positive and finite, got {ls}"
            )
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]


def _check_points(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"points have dimension {X.shape[-1]}, kernel expects {spec.dim}"
        )
    if not np.all(np.isfinite(X)):
        raise InvalidObservationError("points must be finite")
    return X


def sq_distance(diff: np.ndarray, lengthscales) -> np.ndarray:
    """Squared scaled distances from pairwise differences of shape (n, m, d)."""
    diff = diff / lengthscales
    return np.einsum("nmd,nmd->nm", diff, diff)


def product_terms(X2: np.ndarray, lengthscales) -> tuple[np.ndarray, np.ndarray]:
    """X2's side of ``sq_distance_by_terms``: -2 b and |b|^2 for the
    centred, scaled rows b of X2 (m, d), computed once for many queries.

    Both sets are centred on the unit cube's middle first. The distances do
    not change, but the norms shrink, and with them the cancellation error.
    The rounding differs from ``sq_distance``'s by about d * eps / l^2.
    """
    B = (X2 - 0.5) / lengthscales
    return -2.0 * B, np.einsum("md,md->m", B, B)


def sq_distance_by_terms(X: np.ndarray, terms, lengthscales) -> np.ndarray:
    """Squared scaled distances between the rows of X (n, d) and the set
    whose ``product_terms`` are given, as |a|^2 + |b|^2 - 2 a.b from one
    matrix product, clipped at 0."""
    neg2B, B_sq = terms
    A = (X - 0.5) / lengthscales
    # accumulated in place: each fresh (n, m) temporary costs page faults
    sq = A @ neg2B.T
    sq += np.einsum("nd,nd->n", A, A)[:, None]
    sq += B_sq
    return np.maximum(sq, 0.0, out=sq)


def profile(sq: np.ndarray) -> np.ndarray:
    """Kernel values exp(-sq / 2) of squared scaled distances."""
    K = -0.5 * sq
    return np.exp(K, out=K)  # in place: one fresh (n, t) array, not two


def cross_gram(spec: KernelSpec, X, X2) -> np.ndarray:
    """Kernel matrix k(X_i, X2_j) of shape (n, m)."""
    X = _check_points(spec, X)
    X2 = _check_points(spec, X2)
    return profile(sq_distance(X[:, None, :] - X2[None, :, :], spec.lengthscales))


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """PSD kernel matrix of the rows of X (n, d); n may be 0.

    Exactly symmetric with a unit diagonal, with no step to enforce it: the
    difference form gives x_j - x_i = -(x_i - x_j) bit for bit, every entry
    sums the same squares in the same order, and ``profile`` maps 0 to 1.
    """
    return cross_gram(spec, X, X)


def rkhs_norm_of_expansion(spec: KernelSpec, centers, weights) -> float:
    """RKHS norm sqrt(w^T K w) of f = sum_i w_i k(., c_i)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    K = gram_matrix(spec, centers)
    if K.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"{K.shape[0]} centers but {w.shape[0]} weights"
        )
    q = float(w @ K @ w)
    if q < -1e-10:
        raise NumericalError(f"quadratic form {q} is negative beyond tolerance")
    return float(np.sqrt(max(q, 0.0)))
