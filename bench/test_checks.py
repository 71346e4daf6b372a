"""Each benchmark check passes on a real trace and fails on a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import abo  # noqa: E402
import checks  # noqa: E402
from abo import algorithms, cli  # noqa: E402
from run import COMMON, WORKLOADS, _ini, round_seeds  # noqa: E402

ITERS = 20


def _spec(variant="agp_ucb", map_mode="off", estimator="regret_bound"):
    return dict(COMMON, name="t", variant=variant, estimator=estimator,
                map_mode=map_mode, iterations=ITERS)


def _run(spec, problem="example_rkhs", seed=0):
    obj = cli.make_objective(problem, seed)
    config = algorithms.AlgorithmConfig(**{k: v for k, v in spec.items() if k != "iterations"},
                                        seed=seed, iterations=ITERS)
    return checks.trace_from_run(algorithms.run(obj, config)), obj.to_dict()


@pytest.fixture(scope="module")
def adaptive():
    spec = _spec(estimator="one_step")  # h moves within a few iterations
    tr, obj = _run(spec)
    return spec, tr, obj


@pytest.fixture(scope="module")
def with_map():
    spec = _spec(map_mode="combine_max")
    tr, obj = _run(spec)
    return spec, tr, obj


def _corrupt(tr, key, fn):
    bad = copy.deepcopy(tr)
    fn(bad[key])
    return bad


SAMPLE = checks.dense_sample(1, np.random.default_rng(0))


def test_clean_trace_passes(adaptive):
    spec, tr, obj = adaptive
    checks.check_f_max(obj, SAMPLE, tr["X"])
    checks.check_trace(tr, spec, obj)
    assert checks.check_gp_oracle(tr, spec, abo, np.random.default_rng(1)) <= checks.ORACLE_TOL


@pytest.mark.parametrize("key, fn, message", [
    ("X", lambda a: a.__setitem__((3, 0), 1.25), "outside"),
    ("iter", lambda a: a.__setitem__(slice(0, 2), a[1::-1].copy()), "iteration column"),
    ("simple_regret", lambda a: a.__setitem__(4, a[4] * 1.001 + 1e-6), "simple regret"),
    ("cumulative_regret", lambda a: a.__setitem__(-1, a[-1] * 1.001), "cumulative regret"),
    ("h", lambda a: a.__setitem__(-2, a[-1] + 0.5), "h decreases"),
    ("h", lambda a: a.__setitem__(-1, 50.0), "1 + t^0.45"),
    ("g", lambda a: a.__setitem__(-1, a[-1] * 1.01), "g^d"),
    ("theta", lambda a: a.__setitem__((-1, 0), a[-1, 0] * 1.01), "theta0 / g"),
    ("beta_sqrt", lambda a: a.__setitem__(-1, 1.0), "beta"),
])
def test_corrupted_trace_fails(adaptive, key, fn, message):
    spec, tr, obj = adaptive
    with pytest.raises(checks.CheckError, match=re.escape(message)):
        checks.check_trace(_corrupt(tr, key, fn), spec, obj)


def test_f_max_below_dense_sample_fails(adaptive):
    spec, tr, obj = adaptive
    bad = dict(obj, f_max=obj["f_max"] - 0.05)
    with pytest.raises(checks.CheckError, match="dense-sample max"):
        checks.check_f_max(bad, SAMPLE)


def test_f_max_below_evaluated_value_fails(adaptive):
    spec, tr, obj = adaptive
    f = checks.objective_values(obj, tr["X"])
    # f_max just below the best evaluated value; the sample holds the worst
    bad = dict(obj, f_max=float(f.max()) - 1e-6)
    with pytest.raises(checks.CheckError, match="evaluated value"):
        checks.check_f_max(bad, tr["X"][[np.argmin(f)]], tr["X"])


def test_beta_off_formula_fails_oracle(adaptive):
    spec, tr, obj = adaptive
    row = checks._rows_before(tr, ITERS)
    bad = _corrupt(tr, "beta_sqrt", lambda a: a.__setitem__(row, a[row] * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="formula"):
        checks.check_gp_oracle(bad, spec, abo, np.random.default_rng(1))


def test_wrong_posterior_fails_oracle(adaptive):
    spec, tr, obj = adaptive

    class SkewedGP(abo.GaussianProcess):
        def posterior(self, Xq):
            mean, var = super().posterior(Xq)
            return mean + 1e-7, var

    fake = SimpleNamespace(GaussianProcess=SkewedGP, KernelSpec=abo.KernelSpec)
    with pytest.raises(checks.CheckError, match="dense solve"):
        checks.check_gp_oracle(tr, spec, fake, np.random.default_rng(1))


def test_baseline_schedules():
    for variant in ("fixed_gp_ucb", "wang_shrink"):
        spec = _spec(variant=variant)
        spec["kappa"] = 0.1
        tr, obj = _run(spec, problem="gp_sample")
        checks.check_trace(tr, spec, obj)
        bad = _corrupt(tr, "h", lambda a: a.__setitem__(-1, a[-1] + 0.5))
        with pytest.raises(checks.CheckError):
            checks.check_schedule(bad, spec)


def test_map_check(with_map):
    spec, tr, obj = with_map
    checks.check_trace(tr, spec, obj)
    assert checks.check_map(tr, spec, abo) >= -checks.MAP_TOL
    row = checks._rows_before(tr, ITERS)
    bad = _corrupt(tr, "theta", lambda a: a.__setitem__((row, 0), a[row, 0] * 0.9))
    with pytest.raises(checks.CheckError, match="min"):
        checks.check_map(bad, spec, abo)


def test_worse_map_fails_grid(with_map):
    spec, tr, obj = with_map
    hp = abo.hyperparam
    edge = 1.0  # top of the truncated box: a poor MAP point on this data

    def poor_map(state, prior, init):
        theta = np.array([edge])
        return hp.MapResult(theta, checks.dense_log_posterior(
            theta, spec["noise_sigma"], state.X, state.y, prior.shape, prior.rate))

    fake = SimpleNamespace(GaussianProcess=abo.GaussianProcess, KernelSpec=abo.KernelSpec,
                           hyperparam=SimpleNamespace(map_estimate=poor_map,
                                                      LengthscalePrior=hp.LengthscalePrior))
    bad = copy.deepcopy(tr)
    for t in checks.sample_iterations(ITERS):
        row = checks._rows_before(bad, t)
        bad["theta"][row] = np.minimum(edge, spec["theta0"] / bad["g"][row])
    with pytest.raises(checks.CheckError, match="grid best"):
        checks.check_map(bad, spec, fake)


def test_summary_and_identical(tmp_path):
    algo = {k: v for k, v in _spec(variant="fixed_gp_ucb").items() if k != "iterations"}
    wl = {"problem": "gp_sample", "algorithms": [algo]}
    for run in ("a", "b"):
        config = cli.parse_config(_ini(wl, [0, 1], tmp_path / run).replace(
            "iterations = 100", f"iterations = {ITERS}"))
        cli.run_experiment(config)
    files = {r: {p.name: p.read_bytes() for p in sorted((tmp_path / r).iterdir())} for r in "ab"}
    checks.check_identical(files["a"], files["b"])
    traces = [tmp_path / "a" / f"t_seed{s}.csv" for s in (0, 1)]
    summary = tmp_path / "a" / "t_summary.csv"
    checks.check_summary(summary, traces)

    lines = summary.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-9))
    lines[-1] = ",".join(fields)
    summary.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="cumulative_mean"):
        checks.check_summary(summary, traces)
    files["b"]["t_seed0.csv"] += b"\n"
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_identical(files["a"], files["b"])


def test_round_seeds():
    assert round_seeds(WORKLOADS["map-1d"], 3) == [6, 7]
    acq = WORKLOADS["acq-4d"]
    assert round_seeds(acq, 1) == [10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 19]
    drawn = [s for n in range(20) for s in round_seeds(acq, n)[:-1]]
    assert round_seeds(acq, 7)[-1] == acq["fault_seed"]
    assert acq["fault_seed"] not in drawn and len(set(drawn)) == len(drawn)
