"""Correctness checks on optimization traces, made apart from the program.

Every check takes a trace as plain arrays (see ``trace_from_csv`` and
``trace_from_run``) plus the run's settings as the benchmark defined them,
and raises ``CheckError`` on the first violation. The objective is rebuilt
from ``ObjectiveSpec.to_dict()`` with a standalone NumPy kernel; GP and MAP
results are compared against dense ``np.linalg`` computations. Only the two
sampled checks call into the package, to compare its GP and its MAP search
against those oracles.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, stated once.
REL_TOL = 1e-9  # recomputed regret, h = g^d b, beta, summaries
ORACLE_TOL = 1e-8  # |GP posterior - dense solve|, absolute
MAP_TOL = 1e-6  # MAP log-posterior may trail the dense grid's best by this
MAP_GRID = 801  # grid points over log(theta) in the truncated box
SUMMARY_TOL = 1e-12  # relative, summary mean/std vs recomputed

# Model constants the checks assume, as the paper and README define them.
H_CAP_EXPONENT = 0.45  # h <= 1 + t^0.45
BOX = (1e-3, 1e2)  # lengthscale search box
TRUNCATION = 10.0  # MAP stays within one decade of theta0


class CheckError(AssertionError):
    """A trace violates a property the method guarantees."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(a, b, rel, abs_tol=0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= abs_tol + rel * np.maximum(np.abs(a), np.abs(b))))


# --- traces as plain arrays ------------------------------------------------

def trace_from_run(trace) -> dict:
    """Arrays from an in-memory RunTrace."""
    return {
        "iter": np.asarray(trace.iters, dtype=int),
        "X": np.asarray(trace.X, dtype=float).reshape(len(trace.iters), -1),
        "y": np.asarray(trace.y, dtype=float),
        "beta_sqrt": np.asarray(trace.beta_sqrt, dtype=float),
        "g": np.asarray(trace.g, dtype=float),
        "b": np.asarray(trace.b, dtype=float),
        "h": np.asarray(trace.h, dtype=float),
        "theta": np.asarray(trace.theta, dtype=float).reshape(len(trace.iters), -1),
        "simple_regret": np.asarray(trace.simple_regret, dtype=float),
        "cumulative_regret": np.asarray(trace.cumulative_regret, dtype=float),
    }


def trace_from_csv(path) -> dict:
    """Arrays from a trace CSV written by ``abo run``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    _require(rows, f"{path}: no data rows")
    data = np.array([[float(v) for v in row] for row in rows])
    _require(data.shape[1] == len(header), f"{path}: ragged rows")
    col = {name: data[:, i] for i, name in enumerate(header)}
    xs = sorted((n for n in header if n.startswith("x_")), key=lambda n: int(n[2:]))
    ths = sorted((n for n in header if n.startswith("theta_")), key=lambda n: int(n[6:]))
    out = {name: col[name] for name in (
        "y", "beta_sqrt", "g", "b", "h", "simple_regret", "cumulative_regret")}
    out["iter"] = col["iter"].astype(int)
    out["X"] = np.column_stack([col[n] for n in xs])
    out["theta"] = np.column_stack([col[n] for n in ths])
    return out


# --- standalone objective --------------------------------------------------

def kernel_matrix(kernel: dict, A, B) -> np.ndarray:
    """k(A_i, B_j) for the kernel dict of ``ObjectiveSpec.to_dict()``."""
    ls = np.asarray(kernel["lengthscales"], dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float)) / ls
    B = np.atleast_2d(np.asarray(B, dtype=float)) / ls
    sq = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * A @ B.T
    sq = np.maximum(sq, 0.0)
    if kernel["family"] == "se":
        return np.exp(-0.5 * sq)
    r = math.sqrt(2.0 * kernel["nu"]) * np.sqrt(sq)
    if kernel["nu"] == 1.5:
        return (1.0 + r) * np.exp(-r)
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def objective_values(obj: dict, X) -> np.ndarray:
    """f(x) = sum_i w_i k(x, c_i) from the objective dict alone."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = np.asarray(obj["weights"])
    # in blocks, so that checking adds nothing to the process's peak memory
    return np.concatenate([kernel_matrix(obj["kernel"], X[i:i + 4096], obj["centers"]) @ w
                           for i in range(0, len(X), 4096)])


def dense_sample(d: int, rng: np.random.Generator) -> np.ndarray:
    """Independent dense sample of [0,1]^d used to bound f_max from below."""
    if d == 1:
        return np.concatenate([np.linspace(0.0, 1.0, 20001), rng.uniform(size=20000)])[:, None]
    return rng.uniform(size=(100_000, d))


# --- per-trace checks ------------------------------------------------------

def check_layout(tr: dict, spec: dict) -> None:
    """Row count, iteration numbering and the unit cube."""
    d = tr["X"].shape[1]
    n_init = spec.get("init_points") or 2**d
    expected = list(range(-n_init, 0)) + list(range(1, spec["iterations"] + 1))
    _require(tr["iter"].tolist() == expected, "iteration column is not -n_init..-1, 1..T")
    _require(np.all((tr["X"] >= 0.0) & (tr["X"] <= 1.0)), "an evaluated x lies outside [0,1]^d")
    _require(np.all(np.isfinite(tr["y"])), "non-finite observation")


def check_f_max(obj: dict, sample: np.ndarray, X=None) -> None:
    """f_max is at least the max over a dense independent sample and over
    the evaluated inputs ``X``, so no regret can be negative."""
    f_max = float(obj["f_max"])
    span = f_max - float(obj["f_min"])
    _require(span > 0, "objective has an empty value range")
    sample_max = float(objective_values(obj, sample).max())
    _require(f_max >= sample_max - REL_TOL * span,
             f"f_max {f_max!r} is below the dense-sample max {sample_max!r}")
    if X is not None:
        _require(f_max >= float(objective_values(obj, X).max()) - REL_TOL * span,
                 "f_max is below an evaluated value")


def check_regret(tr: dict, obj: dict) -> None:
    """Recompute f, then simple and cumulative regret, from the objective dict."""
    f = objective_values(obj, tr["X"])
    f_max = float(obj["f_max"])
    tol = REL_TOL * (f_max - float(obj["f_min"]))
    inst = f_max - f
    simple = np.minimum.accumulate(inst)
    cumulative = np.cumsum(inst)
    _require(_close(tr["simple_regret"], simple, REL_TOL, tol),
             "simple regret differs from f_max - max f(x_1..t)")
    _require(_close(tr["cumulative_regret"], cumulative, REL_TOL, tol * len(f)),
             "cumulative regret differs from sum of f_max - f(x_j)")


def check_schedule(tr: dict, spec: dict) -> None:
    """h, g, b, theta and beta obey the variant's schedule."""
    d = tr["X"].shape[1]
    theta0 = float(spec["theta0"])
    bo = tr["iter"] >= 1
    init = ~bo
    for name in ("g", "b", "h"):
        _require(np.all(tr[name][init] == 1.0), f"{name} != 1 on an initial-design row")
    _require(np.all(tr["theta"][init] == theta0), "theta != theta0 on an initial-design row")
    t = tr["iter"][bo].astype(float)
    g, b, h = tr["g"][bo], tr["b"][bo], tr["h"][bo]
    theta, beta = tr["theta"][bo], tr["beta_sqrt"][bo]
    _require(np.all(np.diff(h) >= 0.0), "h decreases")
    _require(np.all(h >= 1.0), "h < 1")
    variant = spec["variant"]
    if variant == "agp_ucb":
        _require(np.all(h <= 1.0 + t**H_CAP_EXPONENT + 1e-12), "h exceeds 1 + t^0.45")
        _require(_close(g**d * b, h, REL_TOL), "g^d * b != h")
        norm_bound = b * g**d * spec["b0"]
    elif variant == "fixed_gp_ucb":
        _require(np.all((g == 1.0) & (b == 1.0) & (h == 1.0)), "fixed GP-UCB moved its schedule")
        norm_bound = np.full_like(h, spec["b0"])
    else:  # wang_shrink: h records the accumulated shrink factor
        _require(np.all(b == 1.0) and np.all(g == h), "Wang rows need b = 1 and g = h")
        norm_bound = np.full_like(h, spec["b0"])
    ceiling = theta0 / g[:, None]
    if spec.get("map_mode", "off") == "off":
        _require(_close(theta, np.broadcast_to(ceiling, theta.shape), REL_TOL),
                 "theta != theta0 / g with MAP off")
    else:
        _require(np.all(theta <= ceiling * (1.0 + 1e-12)), "theta > theta0 / g under combine_max")
    # beta^{1/2} = B + 4 sigma sqrt(I + 1 + ln 1/delta) >= B + 4 sigma sqrt(1 + ln 1/delta)
    floor = norm_bound + 4.0 * spec["noise_sigma"] * math.sqrt(1.0 + math.log(1.0 / spec["delta"]))
    _require(np.all(beta >= floor * (1.0 - REL_TOL)), "beta^{1/2} < b g^d b0 + 4 sigma sqrt(1 + ln 1/delta)")


def check_trace(tr: dict, spec: dict, obj: dict) -> None:
    """Every per-trace check that needs neither the package nor a dense
    sample (``check_f_max`` takes that)."""
    check_layout(tr, spec)
    check_regret(tr, obj)
    check_schedule(tr, spec)


# --- sampled checks against dense oracles ---------------------------------

def sample_iterations(T: int) -> list[int]:
    return sorted({1, max(1, T // 2), T})


def _rows_before(tr: dict, t: int) -> int:
    """Rows observed before iteration t chose its input (row index of t)."""
    return int(np.flatnonzero(tr["iter"] == t)[0])


# The model GP below is squared-exponential, as in every problem preset.

def dense_posterior(ls, sigma, X, y, Q):
    kernel = {"family": "se", "lengthscales": ls}
    K = kernel_matrix(kernel, X, X) + sigma**2 * np.eye(len(X))
    Ks = kernel_matrix(kernel, X, Q)
    mean = Ks.T @ np.linalg.solve(K, y)
    var = 1.0 - np.einsum("ij,ij->j", Ks, np.linalg.solve(K, Ks))
    return mean, var


def dense_mutual_information(ls, sigma, X) -> float:
    K = kernel_matrix({"family": "se", "lengthscales": ls}, X, X)
    _, logdet = np.linalg.slogdet(np.eye(len(X)) + K / sigma**2)
    return 0.5 * logdet


def dense_log_posterior(theta, sigma, X, y, shape, rate) -> float:
    """Gaussian log evidence plus the unnormalized gamma log prior."""
    K = kernel_matrix({"family": "se", "lengthscales": theta}, X, X) + sigma**2 * np.eye(len(X))
    _, logdet = np.linalg.slogdet(K)
    fit = float(y @ np.linalg.solve(K, y))
    theta = np.asarray(theta, dtype=float)
    prior = float(np.sum((shape - 1.0) * np.log(theta) - rate * theta))
    return -0.5 * fit - 0.5 * logdet - 0.5 * len(y) * math.log(2.0 * math.pi) + prior


def check_gp_oracle(tr: dict, spec: dict, abo, rng: np.random.Generator) -> float:
    """At sampled iterations the package's GP matches a dense solve and beta
    matches its formula with an independently computed information gain.

    Returns the largest posterior deviation seen.
    """
    d = tr["X"].shape[1]
    sigma = spec["noise_sigma"]
    worst = 0.0
    for t in sample_iterations(spec["iterations"]):
        n = _rows_before(tr, t)
        X, y, ls = tr["X"][:n], tr["y"][:n], tr["theta"][n]
        Q = np.vstack([rng.uniform(size=(32, d)), tr["X"][n]])
        gp = abo.GaussianProcess(abo.KernelSpec(ls), sigma, X, y)
        mean, var = gp.posterior(Q)
        ref_mean, ref_var = dense_posterior(ls, sigma, X, y, Q)
        dev = float(max(np.max(np.abs(mean - ref_mean)), np.max(np.abs(var - ref_var))))
        worst = max(worst, dev)
        _require(dev <= ORACLE_TOL, f"t={t}: GP posterior deviates from dense solve by {dev:.3g}")
        mi = dense_mutual_information(ls, sigma, X)
        if spec["variant"] == "agp_ucb":
            g, b = tr["g"][n], tr["b"][n]
            norm_bound = b * g**d * spec["b0"]
        else:
            norm_bound = spec["b0"]
        beta = norm_bound + 4.0 * sigma * math.sqrt(mi + 1.0 + math.log(1.0 / spec["delta"]))
        _require(_close(tr["beta_sqrt"][n], beta, REL_TOL),
                 f"t={t}: beta^{{1/2}} {tr['beta_sqrt'][n]!r} != formula {beta!r}")
    return worst


def check_map(tr: dict, spec: dict, abo) -> float:
    """Under combine_max, theta_t = min(theta_MAP, theta0/g_t), and the MAP
    log-posterior is no worse than the best point of a dense grid over
    log(theta) in the truncated box (1-d only). Returns the worst margin
    (MAP minus grid best; negative means the grid found better)."""
    d = tr["X"].shape[1]
    _require(d == 1, "the MAP grid check covers 1-d problems")
    sigma, theta0 = spec["noise_sigma"], float(spec["theta0"])
    shape, rate = spec["prior_shape"], spec["prior_rate"]
    lo = max(BOX[0], theta0 / TRUNCATION)
    hi = min(BOX[1], theta0 * TRUNCATION)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), MAP_GRID))
    worst = math.inf
    for t in sample_iterations(spec["iterations"]):
        n = _rows_before(tr, t)
        X, y = tr["X"][:n], tr["y"][:n]
        state = abo.GaussianProcess(abo.KernelSpec([theta0]), sigma, X, y)
        res = abo.hyperparam.map_estimate(
            state, abo.hyperparam.LengthscalePrior(shape, rate), init=[theta0])
        theta_map = np.asarray(res.theta_map, dtype=float)
        expected = np.minimum(theta_map, theta0 / tr["g"][n])
        _require(_close(tr["theta"][n], expected, 1e-12),
                 f"t={t}: theta {tr['theta'][n]} != min(theta_MAP, theta0/g) = {expected}")
        own = dense_log_posterior(theta_map, sigma, X, y, shape, rate)
        _require(_close(res.log_posterior, own, REL_TOL, 1e-8),
                 f"t={t}: reported MAP log-posterior {res.log_posterior!r} != recomputed {own!r}")
        best = max(dense_log_posterior([th], sigma, X, y, shape, rate) for th in grid)
        margin = own - best
        worst = min(worst, margin)
        _require(margin >= -MAP_TOL,
                 f"t={t}: MAP log-posterior {own:.9g} trails the grid best {best:.9g}")
    return worst


# --- CLI outputs -----------------------------------------------------------

def check_summary(summary_path, trace_paths) -> None:
    """Summary mean/std per iteration equal those recomputed from the traces."""
    with open(summary_path) as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    col = {name: data[:, i] for i, name in enumerate(header)}
    traces = [trace_from_csv(p) for p in trace_paths]
    _require(all(np.array_equal(tr["iter"], col["iter"]) for tr in traces),
             "summary iterations differ from the traces'")
    for kind in ("simple", "cumulative"):
        stack = np.vstack([tr[f"{kind}_regret"] for tr in traces])
        mean = stack.mean(axis=0)
        std = np.sqrt(((stack - mean) ** 2).mean(axis=0))
        _require(_close(col[f"{kind}_mean"], mean, SUMMARY_TOL, 1e-300),
                 f"summary {kind}_mean differs from the traces' mean")
        _require(_close(col[f"{kind}_std"], std, SUMMARY_TOL, 1e-12 * float(np.max(np.abs(mean)))),
                 f"summary {kind}_std differs from the traces' std")


def check_identical(first: dict, second: dict) -> None:
    """Two runs of one config wrote byte-identical files."""
    _require(first.keys() == second.keys(), "the two runs wrote different file sets")
    for name in first:
        _require(first[name] == second[name], f"{name} differs between two runs of one config")
