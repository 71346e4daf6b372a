import numpy as np
import pytest

from abo import kernels
from abo.gp import GaussianProcess


def matern_profile(nu):
    """The Matern closed form for nu = 1.5 or 2.5 as a function of squared
    scaled distance: a second stationary profile, kept here because the
    library itself has only the squared-exponential one."""

    def profile(sq):
        s = np.sqrt(sq)
        if nu == 1.5:
            r = np.sqrt(3.0) * s
            return (1.0 + r) * np.exp(-r)
        r = np.sqrt(5.0) * s
        return (1.0 + r + r * r / 3.0) * np.exp(-r)

    return profile


@pytest.fixture
def use_profile(monkeypatch):
    """use(nu) puts the Matern profile of that nu, or for None keeps the SE
    one, in ``kernels.profile``, the one place where the library turns
    squared distances into kernel values, and returns it. The GP, the MAP
    search and the kernel matrices must then keep their bit contracts for
    any stationary profile, not just the SE one."""

    def use(nu):
        if nu is not None:
            monkeypatch.setattr(kernels, "profile", matern_profile(nu))
        return kernels.profile

    return use


GRAM_JITTER = 1e-10


@pytest.fixture
def interpolant_norm():
    """norm(spec, grid, values): the norm of the minimum-norm interpolant
    through (grid, values), sqrt(v^T (K + GRAM_JITTER I)^{-1} v); a lower
    bound on the RKHS norm of any function matching the values on the grid.
    A check on the library's kernels, not a library routine: the library
    factorizes only through ``gp.chol_with_jitter``."""

    def norm(spec, grid, values):
        v = np.atleast_1d(np.asarray(values, dtype=float))
        K = kernels.gram_matrix(spec, grid)
        K = K + GRAM_JITTER * np.eye(K.shape[0])
        from scipy.linalg import cho_factor, cho_solve

        c, low = cho_factor(K, lower=True)
        q = float(v @ cho_solve((c, low), v))
        return float(np.sqrt(max(q, 0.0)))

    return norm


@pytest.fixture
def full_passes(monkeypatch):
    """[queries, retained] of every full posterior pass; a pass is retained
    when the carried scan it was made for holds V."""
    calls = []
    full_pass = GaussianProcess._posterior_pass
    carried_scan = GaussianProcess._carried_scan

    def counting(self, Xq):
        calls.append([Xq, False])
        return full_pass(self, Xq)

    def carrying(self, cand):
        start = len(calls)
        scan = carried_scan(self, cand)
        for call in calls[start:]:
            call[1] = scan.V is not None
        return scan

    monkeypatch.setattr(GaussianProcess, "_posterior_pass", counting)
    monkeypatch.setattr(GaussianProcess, "_carried_scan", carrying)
    return calls
