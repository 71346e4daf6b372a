"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``) including the measured runtime against the
criterion's budget. Long-running optimization traces are shared between
criteria through a module-level cache.
"""

import subprocess
import sys
import time

import numpy as np

from abo.adaptation import beta_sqrt
from abo.algorithms import AlgorithmConfig, run
from abo.gp import GaussianProcess
from abo.kernels import KernelSpec, gram_matrix
from abo.objectives import bump_linear_preset, make_gp_sample_function, make_rkhs_function

_cache: dict = {}


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_criterion_1_gp_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, 16))
        theta = rng.uniform(0.1, 1.0, size=d)
        sigma = float(rng.uniform(0.05, 0.5))
        X = rng.uniform(size=(t, d))
        y = rng.standard_normal(t)
        xq = rng.uniform(size=d)
        gp = GaussianProcess(KernelSpec(theta), sigma, X, y)
        mean, var = gp.posterior_mean_var(xq)
        # direct dense solve of the predictive equations
        K = gram_matrix(KernelSpec(theta), X) + sigma**2 * np.eye(t)
        k = np.exp(-0.5 * np.sum(((xq - X) / theta) ** 2, axis=1))
        mean_ref = float(k @ np.linalg.solve(K, y))
        var_ref = float(1.0 - k @ np.linalg.solve(K, k))
        worst = max(worst, abs(mean - mean_ref), abs(var - var_ref))
    _report(
        1, "GP oracle equivalence", worst < 1e-8,
        f"max |posterior - dense solve| = {worst:.2e} over 200 problems (tol 1e-8)",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_2_mutual_information():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    invariant = True
    for t in range(1, 11):
        d = int(rng.integers(1, 4))
        theta = rng.uniform(0.1, 1.0, size=d)
        sigma = float(rng.uniform(0.05, 0.5))
        X = rng.uniform(size=(t, d))
        gp_a = GaussianProcess(KernelSpec(theta), sigma, X, rng.standard_normal(t))
        gp_b = GaussianProcess(KernelSpec(theta), sigma, X, rng.standard_normal(t))
        K = gram_matrix(KernelSpec(theta), X)
        _, logdet = np.linalg.slogdet(np.eye(t) + K / sigma**2)
        worst = max(worst, abs(gp_a.mutual_information() - 0.5 * logdet))
        invariant &= gp_a.mutual_information() == gp_b.mutual_information()
    ok = worst < 1e-9 and invariant
    _report(
        2, "mutual information", ok,
        f"max |MI - explicit det| = {worst:.2e} (tol 1e-9), "
        f"observation-invariant: {invariant}",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_3_interval_coverage():
    start = time.perf_counter()
    kernel = KernelSpec(np.array([0.1]))
    grid = np.linspace(0.0, 1.0, 100)[:, None]
    covered = 0
    n_runs = 50
    for seed in range(n_runs):
        obj = make_rkhs_function(kernel, m=30, target_norm=2.0, seed=seed)
        f_grid = obj(grid)
        config = AlgorithmConfig(
            variant="fixed_gp_ucb", theta0=0.1, b0=2.0, delta=0.1,
            iterations=30, seed=seed,
        )
        trace = run(obj, config)
        X = np.asarray(trace.X)
        y = np.asarray(trace.y)
        iters = np.asarray(trace.iters)
        ok_run = True
        for t in range(1, 31):
            i = int(np.where(iters == t)[0][0])
            gp = GaussianProcess(kernel, 0.1, X[:i], y[:i])
            bs = beta_sqrt(2.0, gp.mutual_information(), noise_sigma=0.1, delta=0.1)
            mean, var = gp.posterior(grid)
            half = bs * np.sqrt(var)
            if np.any(np.abs(f_grid - mean) > half):
                ok_run = False
                break
        covered += ok_run
    frac = covered / n_runs
    _report(
        3, "interval coverage", frac >= 0.8,
        f"fraction of runs with full coverage = {frac:.2f} (need >= 0.8)",
        time.perf_counter() - start, 120.0,
    )


def _criterion4_traces():
    if "c4" not in _cache:
        obj = bump_linear_preset()
        traces = {}
        for label, kw in [
            ("agp_regret_bound", dict(
                variant="agp_ucb", estimator="regret_bound", map_mode="combine_max")),
            ("agp_one_step", dict(
                variant="agp_ucb", estimator="one_step", map_mode="combine_max")),
            ("fixed", dict(variant="fixed_gp_ucb")),
        ]:
            traces[label] = [
                run(obj, AlgorithmConfig(iterations=100, seed=s, **kw))
                for s in range(10)
            ]
        _cache["c4"] = (obj, traces)
    return _cache["c4"]


def test_criterion_4_convergence_under_misspecification():
    start = time.perf_counter()
    obj, traces = _criterion4_traces()
    threshold = 0.1 * obj.value_range
    counts = {
        label: sum(tr.simple_regret[-1] <= threshold for tr in runs)
        for label, runs in traces.items()
    }
    ok = (
        counts["agp_regret_bound"] >= 8
        and counts["agp_one_step"] >= 8
        and (10 - counts["fixed"]) >= 5
    )
    _report(
        4, "convergence under misspecification", ok,
        f"adaptive converged {counts['agp_regret_bound']}/10 (regret-bound) and "
        f"{counts['agp_one_step']}/10 (one-step), need >= 8; "
        f"fixed stuck {10 - counts['fixed']}/10, need >= 5",
        time.perf_counter() - start, 600.0,
    )


def test_criterion_5_misspecified_norm_bound():
    start = time.perf_counter()
    kernel = KernelSpec(np.full(2, 0.1))
    plateau = converged = 0
    for seed in range(10):
        obj = make_gp_sample_function(kernel, grid_size=56, target_norm=4.0, seed=seed)
        fixed = run(obj, AlgorithmConfig(
            variant="fixed_gp_ucb", theta0=0.1, b0=0.25, noise_sigma=1e-4,
            iterations=100, seed=seed, init_points=4,
        ))
        adaptive = run(obj, AlgorithmConfig(
            variant="agp_ucb", theta0=1.0, b0=0.25, noise_sigma=1e-4,
            estimator="regret_bound", iterations=150, seed=seed, init_points=4,
        ))
        bo = fixed.bo_slice()
        simple = np.asarray(fixed.simple_regret)[bo]
        plateau += simple[-1] >= 0.5 * simple[0]
        converged += adaptive.simple_regret[-1] <= 0.1 * obj.value_range
    ok = plateau >= 7 and converged >= 7
    _report(
        5, "misspecified norm bound", ok,
        f"fixed plateaued {plateau}/10, adaptive converged {converged}/10 "
        f"(need >= 7 each)",
        time.perf_counter() - start, 600.0,
    )


def _window_ratio(trace):
    bo = trace.bo_slice()
    cum = np.asarray(trace.cumulative_regret)[bo]
    avg = cum / np.arange(1, len(cum) + 1)
    return avg[74:100].mean() / avg[24:50].mean()


def test_criterion_6_sublinearity_signature():
    start = time.perf_counter()
    obj, traces = _criterion4_traces()
    adaptive_ok = {
        label: sum(_window_ratio(tr) < 1.0 for tr in traces[label])
        for label in ("agp_regret_bound", "agp_one_step")
    }
    wang = [
        run(obj, AlgorithmConfig(
            variant="wang_shrink", kappa=0.1, iterations=100, seed=s))
        for s in range(10)
    ]
    wang_fail = sum(_window_ratio(tr) >= 0.9 for tr in wang)
    ok = (
        adaptive_ok["agp_regret_bound"] >= 8
        and adaptive_ok["agp_one_step"] >= 8
        and wang_fail >= 6
    )
    _report(
        6, "sublinearity signature", ok,
        f"adaptive window-average decreased in "
        f"{adaptive_ok['agp_regret_bound']}/10 and "
        f"{adaptive_ok['agp_one_step']}/10 runs (need >= 8); shrink baseline "
        f"stalled (ratio >= 0.9) in {wang_fail}/10 (need >= 6)",
        time.perf_counter() - start, 300.0,
    )


def test_criterion_7_schedule_algebra():
    from abo.adaptation import ScalingState, decompose, h_cap, solve_h

    start = time.perf_counter()
    worst_product = 0.0
    for h in np.geomspace(1.0, 1e6, 25):
        for lam in (0.0, 0.1, 1.0, 10.0):
            for d in (1, 2, 4):
                g, b = decompose(h, lam, d)
                worst_product = max(worst_product, abs(g**d * b - h) / h)

    # the defaults keep h = 1 on every step; B0 = 0.5 and sigma = 0.01 move it
    obj = bump_linear_preset()
    monotone = capped = True
    for config in (
        AlgorithmConfig(iterations=20, seed=0),
        AlgorithmConfig(iterations=20, seed=0, b0=0.5, noise_sigma=0.01),
    ):
        trace = run(obj, config)
        bo = trace.bo_slice()
        h_run = np.asarray(trace.h)[bo]
        monotone = monotone and bool(
            np.all(np.diff(h_run) >= 0)
            and np.all(np.diff(np.asarray(trace.g)[bo]) >= 0)
            and np.all(np.diff(np.asarray(trace.b)[bo]) >= 0)
        )
        capped = capped and all(h_run[t - 1] <= h_cap(t) + 1e-12 for t in range(1, 21))
    # so the checks above see a schedule that moves, not only constants
    expanded = int(np.sum(h_run > 1.0))

    worst_root = 0.0
    for t, coef, power in [(10, 0.5, 2.0), (50, 0.2, 1.0), (200, 1.0, 3.0)]:
        s = ScalingState(lam=0.1, theta0=np.array([1.0, 1.0]), b0=2.0)
        p = float(t) ** 0.9
        analytic = min(max((p / coef) ** (1.0 / power), 1.0), h_cap(t))
        h = solve_h(s, t, lambda hh: coef * hh**power)
        worst_root = max(worst_root, abs(h - analytic) / analytic)

    ok = (
        worst_product < 1e-9 and monotone and capped and expanded > 10
        and worst_root < 1e-6
    )
    _report(
        7, "schedule algebra", ok,
        f"max relative product error = {worst_product:.2e} (tol 1e-9); "
        f"monotone: {monotone}; capped: {capped}; "
        f"h > 1 on {expanded} of 20 adapting steps (need > 10); "
        f"max bisection-vs-analytic error = {worst_root:.2e} (tol 1e-6)",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_8_norm_shrink_inequality(interpolant_norm):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    worst_excess = -np.inf
    for _ in range(20):
        theta = float(rng.uniform(0.1, 0.5))
        kernel = KernelSpec(np.array([theta]))
        m = int(rng.integers(3, 12))
        centers = rng.uniform(size=(m, 1))
        weights = rng.standard_normal(m)
        grid = np.linspace(0.0, 1.0, 200)[:, None]
        values = (
            np.exp(-0.5 * ((grid - centers[:, 0][None, :]) / theta) ** 2) @ weights
        )
        base = interpolant_norm(kernel, grid, values)
        for c in (1.5, 2.0, 4.0):
            shrunk = KernelSpec(np.array([theta / c]))
            excess = interpolant_norm(shrunk, grid, values) - (
                c**0.5 * base + 1e-6
            )
            worst_excess = max(worst_excess, excess)
            ok &= excess <= 0
    _report(
        8, "norm inequality under lengthscale shrink", ok,
        f"max inequality excess = {worst_excess:.2e} (must be <= 0)",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\n"
        "problem = example_rkhs\n"
        "seeds = 0, 1\n"
        "iterations = 10\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "\n"
        "[algorithm.adaptive]\n"
        "variant = agp_ucb\n"
        "map_mode = combine_max\n"
        "\n"
        "[algorithm.fixed]\n"
        "variant = fixed_gp_ucb\n"
    )

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "abo.cli", "run", "--config", str(config)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_once()
    second = run_once()
    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    _report(
        9, "CLI determinism", identical and len(first) > 0,
        f"{len(first)} output files byte-identical across reruns: {identical}",
        time.perf_counter() - start, 60.0,
    )
