"""Benchmark for abo: seeded workloads, checked outputs, per-layer costs.

    python3 bench/run.py --workload {map-1d,acq-4d} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root or any copy of it; it imports the package
from ``src/`` beside this directory and writes only under ``bench/_runs/``.
With ``--trace 0`` it sets up, runs whole rounds of the workload's
optimization runs for at least S seconds, checks every output against
independent computations and prints the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced round and prints the
per-layer metrics. The last line of standard output is the JSON result.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# They decide how many BLAS threads run. The inherited values are recorded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED = {k: os.environ.get(k) for k in THREAD_VARS}
if __name__ == "__main__":
    # One BLAS thread, set before NumPy loads OpenBLAS: with a thread per
    # core, run times follow the host's steal time (see README.md). The
    # set-up probes inherit it; reference.py, which imports this module,
    # keeps the inherited setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

import checks  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 3
ITERATIONS = 100

# Model settings are passed to the program explicitly, so the checks rely
# on the benchmark's values and not on the program's defaults.
COMMON = {"theta0": 1.0, "b0": 2.0, "delta": 0.9, "noise_sigma": 0.1, "lam": 0.1,
          "prior_shape": 2.0, "prior_rate": 10.0, "beta_mode": "theoretical"}


def _algo(name, variant, estimator="regret_bound", map_mode="off", **extra):
    return {"name": name, "variant": variant, "estimator": estimator,
            "map_mode": map_mode, **COMMON, **extra}


WORKLOADS = {
    # MAP-bound: golden-section MAP search dominates; public API, serial
    "map-1d": {
        "problem": "example_rkhs", "runner": "api",
        "algorithms": [_algo("agp_rb_map", "agp_ucb", map_mode="combine_max"),
                       _algo("agp_os_map", "agp_ucb", "one_step", map_mode="combine_max")],
        "seeds_per_round": 2,
        # a traced run makes an untraced and a traced round of the first seed
        "traced_seeds": 1,
    },
    # acquisition-bound: 4352-candidate UCB scans, no MAP; through the CLI's
    # run_experiment in this process, serial, so the cli layer is measured
    "acq-4d": {
        "problem": "synthetic_4d", "runner": "cli-lib",
        "algorithms": [_algo("agp_rb", "agp_ucb")],
        "seeds_per_round": 10,
        # The extrema search misses this objective's maximum (a FOUND line in
        # CHANGES.md). Its run is in every round, whatever --seed is, and is
        # counted as failed for as long as its f_max check fails.
        "fault_seed": 19,
    },
}


class Round:
    """One pass over every (algorithm, seed) run of a workload."""

    def __init__(self):
        self.times: list = []  # wall seconds per optimization run
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.traces: dict = {}  # (algorithm, seed) -> arrays
        self.files: dict = {}  # CLI output name -> bytes
        self.results_dir = None  # CLI output directory

    def add_trace(self, key, arrays):
        self.traces[key] = arrays
        self.iterations += int(np.sum(arrays["iter"] >= 1))


class InProcess:
    """Runs ``algorithms.run`` in this process, one run after another."""

    def __init__(self, wl, seeds, objectives):
        from abo import algorithms

        self.algorithms = algorithms
        self.wl, self.seeds, self.objectives = wl, seeds, objectives

    def round(self, seeds=None) -> Round:
        r = Round()
        for seed in self.seeds if seeds is None else seeds:
            for algo in self.wl["algorithms"]:
                r.attempted += 1
                config = self.algorithms.AlgorithmConfig(
                    **algo, seed=seed, iterations=ITERATIONS)
                start = time.perf_counter()
                try:
                    trace = self.algorithms.run(self.objectives[seed], config)
                except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
                    traceback.print_exc()
                    r.failed += 1
                    continue
                r.times.append(time.perf_counter() - start)
                if trace.aborted:
                    r.failed += 1
                    continue
                r.add_trace((algo["name"], seed), checks.trace_from_run(trace))
        return r


def _child_env(**extra) -> dict:
    """This process's environment plus ``extra``, with ``src/`` on the path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _ini(wl, seeds, out_dir) -> str:
    lines = ["[experiment]", f"problem = {wl['problem']}",
             f"seeds = {', '.join(str(s) for s in seeds)}",
             f"iterations = {ITERATIONS}", f"output_dir = {out_dir}"]
    for algo in wl["algorithms"]:
        lines.append(f"\n[algorithm.{algo['name']}]")
        for key, value in algo.items():
            if key != "name":
                lines.append(f"{'lambda' if key == 'lam' else key} = {value!r}"
                             if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


class CliLibrary:
    """Runs ``cli.run_experiment(config, parallel=1)`` in this process, one
    call a round, on a config parsed from the same INI text ``abo run`` reads."""

    def __init__(self, wl, seeds, out: Path):
        from abo import cli

        self.cli, self.wl, self.seeds, self.out = cli, wl, seeds, out
        self.count = 0

    def round(self, seeds=None) -> Round:
        r = Round()
        results = self.out / f"round{self.count}"
        self.count += 1
        seeds = self.seeds if seeds is None else seeds
        config = self.cli.parse_config(_ini(self.wl, seeds, results))
        r.attempted = len(config.algorithms) * len(config.seeds)
        start = time.perf_counter()
        outcome = self.cli.run_experiment(config, parallel=1)
        r.times = [(time.perf_counter() - start) / r.attempted]
        for name, seed, error in outcome["failures"]:
            print(f"FAILED {name} seed={seed}: {error}", file=sys.stderr)
        r.failed = len(outcome["failures"])
        r.results_dir = results
        r.files = {p.name: p.read_bytes() for p in sorted(results.iterdir())}
        for algo in self.wl["algorithms"]:
            for seed in seeds:
                path = results / f"{algo['name']}_seed{seed}.csv"
                if path.is_file():
                    r.add_trace((algo["name"], seed), checks.trace_from_csv(path))
        return r


def _environment() -> dict:
    import scipy

    blas = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "")
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "inherited_thread_vars": INHERITED,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _setup_probe(problem, seeds) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), problem, *map(str, seeds)],
        env=_child_env(), capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])




def _dense_sample(d, seed):
    # made afresh where needed, so that it does not sit in memory during runs
    return checks.dense_sample(d, np.random.default_rng([seed, 1901]))


def round_seeds(wl, seed) -> list:
    """A round's seeds, a fixed function of ``seed``: n seeds from n * seed
    upward, then the workload's fault seed, which the drawn seeds pass over."""
    n, fault = wl["seeds_per_round"], wl.get("fault_seed")
    if fault is None:
        return list(range(n * seed, n * (seed + 1)))
    return [k + (k >= fault) for k in range(n * seed, n * (seed + 1))] + [fault]


def _inputs(wl, seed):
    from abo import cli

    seeds = round_seeds(wl, seed)
    return seeds, {s: cli.make_objective(wl["problem"], s) for s in seeds}


def _check_all(wl, seeds, rnd: Round, objectives, spec_of, problems: list):
    """Independent checks on every trace of a round. Returns the number of
    checks made and the fault seed's runs whose f_max check failed; every
    other failed check goes to ``problems``."""
    import abo

    made = 0
    known = set()

    def check(what, fn, *args):
        nonlocal made
        made += 1
        try:
            fn(*args)
        except checks.CheckError as exc:
            problems.append(f"{what}: {exc}")

    for (name, seed), tr in sorted(rnd.traces.items()):
        spec = spec_of[name]
        obj = objectives[seed].to_dict()
        what = f"{name} seed {seed}"
        made += 1
        try:
            checks.check_f_max(obj, _dense_sample(tr["X"].shape[1], seed), tr["X"])
        except checks.CheckError as exc:
            if seed != wl.get("fault_seed"):
                problems.append(f"{what} f_max: {exc}")
            else:
                known.add((name, seed))
                print(f"known fault, run counted as failed: {what}: {exc}")
        check(what, checks.check_trace, tr, spec, obj)
        check(what + " gp oracle", checks.check_gp_oracle, tr, spec, abo,
              np.random.default_rng([seed, 3357]))
        if spec["map_mode"] == "combine_max":
            check(what + " map", checks.check_map, tr, spec, abo)
    if rnd.results_dir is not None:
        for algo in wl["algorithms"]:
            paths = [rnd.results_dir / f"{algo['name']}_seed{s}.csv" for s in seeds]
            check(f"{algo['name']} summary", checks.check_summary,
                  rnd.results_dir / f"{algo['name']}_summary.csv", paths)
    return made, known


def _same_outputs(first: Round, other: Round, problems: list, label: str) -> None:
    try:
        if first.files or other.files:
            checks.check_identical(first.files, other.files)
        else:
            checks.check_identical(
                {k: [v.tobytes() for v in tr.values()] for k, tr in first.traces.items()},
                {k: [v.tobytes() for v in tr.values()] for k, tr in other.traces.items()})
    except checks.CheckError as exc:
        problems.append(f"{label}: {exc}")


def _failed(rounds, known) -> int:
    """Runs that raised or aborted, plus runs of the known fault."""
    return sum(r.failed + len(known & r.traces.keys()) for r in rounds)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _regret(rnd: Round, objectives, known) -> float:
    values = [tr["cumulative_regret"][-1] / objectives[key[1]].value_range
              for key, tr in rnd.traces.items() if key not in known]
    return float(np.mean(values)) if values else float("nan")


def untraced(wl, runner, seeds, objectives, spec_of, problems, seconds):
    setup = [_setup_probe(wl["problem"], seeds) for _ in range(SETUP_PROBES)]
    rounds = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round())
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    runs = sum(r.attempted - r.failed for r in rounds)
    cpu = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
    times = [t for r in rounds for t in r.times]
    made, known = _check_all(wl, seeds, rounds[0], objectives, spec_of, problems)
    for i, later in enumerate(rounds[1:], start=2):
        _same_outputs(rounds[0], later, problems, f"round {i} vs round 1")
        made += 1
    if wl["runner"] == "cli-lib":
        # The first seed again, from a second run_experiment call, must write
        # the same trace CSVs; its summary covers one seed, so it differs.
        rerun = runner.round(seeds[:1])
        names = [f"{a['name']}_seed{seeds[0]}.csv" for a in wl["algorithms"]]
        try:
            checks.check_identical({n: rounds[0].files.get(n) for n in names},
                                   {n: rerun.files.get(n) for n in names})
        except checks.CheckError as exc:
            problems.append(f"seed {seeds[0]} rerun vs round 1: {exc}")
        made += 1
    regret = _regret(rounds[0], objectives, known)
    print(f"rounds: {len(rounds)}, runs: {runs}, checks: {made}, problems: {len(problems)}, "
          f"run times: {[round(t, 3) for t in times]}, cumulative regret / range: {regret:.6g}")
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(statistics.median(times), "s"),
        "iters_per_s": _metric(sum(r.iterations for r in rounds) / wall, "1/s"),
        "cpu_s": _metric(cpu / max(runs, 1), "s"),
        "peak_rss_mb": _metric(usage1.ru_maxrss / 1024.0, "MB"),
        "cumulative_regret": _metric(regret, "range"),
    }
    return rounds, known, metrics


def traced(wl, runner, seeds, objectives, spec_of, problems, out: Path):
    from abo import cli

    # The untraced round comes first: it takes the warm-up, it is the one
    # checked, and the tracing overhead is measured against it.
    seeds = seeds[:wl.get("traced_seeds", len(seeds))]
    base = runner.round(seeds)
    spans = out / "spans.jsonl"
    t = tracer.Tracer(str(spans))
    tracer.install(t)
    start = time.perf_counter()
    try:
        t.run_id = "setup"
        for s in objectives:  # the set-up the untraced run's probes time
            cli.make_objective(wl["problem"], s)
        rnd = runner.round(seeds)
    finally:
        t.uninstall()
    wall = time.perf_counter() - start
    made, known = _check_all(wl, seeds, base, objectives, spec_of, problems)
    _same_outputs(base, rnd, problems, "traced vs untraced outputs")
    agg = tracer.aggregate(tracer.load(str(spans)))
    print(f"traced wall: {wall:.3f} s, checks: {made + 1}, problems: {len(problems)}")
    by = agg["by_name"]

    def n(name, field="calls"):
        return by.get(name, {}).get(field, 0)

    def s(name, field="ns"):
        return n(name, field) * 1e-9

    count, sec = "count", "s"
    metrics = {
        "kernels.cross_gram.calls": _metric(n("kernels.cross_gram"), count),
        "kernels.cross_gram.s": _metric(s("kernels.cross_gram"), sec),
        "kernels.cross_gram.pairs": _metric(n("kernels.cross_gram", "work"), count),
        "kernels.cross_gram.bytes_computed": _metric(n("kernels.cross_gram", "bytes"), "B"),
    }
    for name in ("gp.construct", "gp.set_kernel", "gp.add_observation", "gp.posterior"):
        metrics[f"{name}.calls"] = _metric(n(name), count)
        metrics[f"{name}.s"] = _metric(s(name), sec)
    metrics["gp.posterior.points"] = _metric(n("gp.posterior", "work"), count)
    metrics["gp.log_marginal_likelihood.calls"] = _metric(n("gp.log_marginal_likelihood"), count)
    metrics["hyperparam.map_estimate.calls"] = _metric(n("hyperparam.map_estimate"), count)
    metrics["hyperparam.map_estimate.s"] = _metric(s("hyperparam.map_estimate"), sec)
    metrics["hyperparam.map_estimate.objective_evals"] = _metric(agg["map_evals"], count)
    metrics["algorithms.maximize_ucb.calls"] = _metric(n("algorithms.maximize_ucb"), count)
    metrics["algorithms.maximize_ucb.candidates"] = _metric(agg["ucb_points"], count)
    metrics["algorithms.maximize_ucb.s"] = _metric(s("algorithms.maximize_ucb"), sec)
    metrics["algorithms.run.self_s"] = _metric(s("algorithms.run", "self_ns"), sec)
    metrics["adaptation.solve_h.calls"] = _metric(n("adaptation.solve_h"), count)
    metrics["adaptation.solve_h.s"] = _metric(s("adaptation.solve_h"), sec)
    metrics["adaptation.estimator_evals"] = _metric(
        n("adaptation.regret_bound_estimate") + n("adaptation.one_step_estimate"), count)
    metrics["objectives.make.s"] = _metric(s("objectives.make"), sec)
    metrics["objectives.evaluate_objective.calls"] = _metric(n("objectives.evaluate_objective"), count)
    metrics["cli.run_experiment.self_s"] = _metric(s("cli.run_experiment", "self_ns"), sec)
    metrics["cli.emit_trace.s"] = _metric(s("cli.emit_trace"), sec)
    for layer, self_s in agg["layer_self_s"].items():
        metrics[f"{layer}.self_s"] = _metric(self_s, sec)
    traced_run = statistics.median(rnd.times)
    metrics["trace.run_s"] = _metric(traced_run, sec)
    metrics["trace.overhead_s"] = _metric(traced_run - statistics.median(base.times), sec)
    metrics["trace.wall_s"] = _metric(wall, sec)
    return [base, rnd], known, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "abo" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/abo", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a hidden input of cli._execute_run: it shifts every seed
    os.environ.pop("ABO_SEED_OFFSET", None)

    wl = WORKLOADS[args.workload]
    spec_of = {a["name"]: dict(a, iterations=ITERATIONS) for a in wl["algorithms"]}
    out = RUNS / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    print("environment:", json.dumps(_environment()))
    seeds, objectives = _inputs(wl, args.seed)
    print(f"workload: {args.workload}, problem: {wl['problem']}, seeds: {seeds}, "
          f"algorithms: {[a['name'] for a in wl['algorithms']]}, iterations: {ITERATIONS}")
    if wl["runner"] == "cli-lib":
        runner = CliLibrary(wl, seeds, out)
    else:
        runner = InProcess(wl, seeds, objectives)
    problems: list = []
    if args.trace:
        rounds, known, metrics = traced(wl, runner, seeds, objectives, spec_of, problems, out)
    else:
        rounds, known, metrics = untraced(wl, runner, seeds, objectives, spec_of, problems,
                                          args.seconds)
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": _failed(rounds, known),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
