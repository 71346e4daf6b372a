"""Benchmark command line: config parsing, seeded runs, CSV traces.

Config files are flat INI documents. Experiment-level keys live either at
the top of the file or in an ``[experiment]`` section; each algorithm gets
its own ``[algorithm.NAME]`` section.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import algorithms
from .adaptation import ESTIMATORS
from .algorithms import AlgorithmConfig, RunTrace
from .errors import ConfigError
from .kernels import KernelSpec
from .objectives import (
    ObjectiveSpec,
    bump_linear_preset,
    make_gp_sample_function,
    make_rkhs_function,
)
from .rng import GENERATOR_NAME

# problem name -> dimension of its objective
PROBLEMS = {"example_rkhs": 1, "gp_sample": 1, "synthetic_4d": 4}

_FLOAT_FMT = "%.17g"


@dataclass
class ExperimentConfig:
    problem: str = "example_rkhs"
    algorithms: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: list(range(10)))
    iterations: int = 100
    output_dir: str = "results"
    init_points: int | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.init_points is not None and self.init_points < 0:
            raise ConfigError(f"init_points must be >= 0, got {self.init_points}")
        if self.problem not in PROBLEMS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose from {tuple(PROBLEMS)}"
            )
        if not self.algorithms:
            self.algorithms = [AlgorithmConfig(name="agp_ucb")]
        for algo in self.algorithms:
            try:
                algo.theta0_vector(PROBLEMS[self.problem])
            except ValueError as exc:
                raise ConfigError(f"algorithm {algo.name!r}: {exc}") from exc


# Fields that are not keys of their section: the algorithm sections
# themselves, and the per-run values run_experiment fills in.
_NOT_KEYS = {
    ExperimentConfig: ("algorithms",),
    AlgorithmConfig: ("iterations", "seed", "init_points", "name"),
}
# list-valued keys and their element type; other keys take their default's type
_LISTS = {"seeds": int, "theta0": float}


def _keys(cls) -> dict:
    """Config key -> dataclass field for each key of a ``cls`` section."""
    return {
        "lambda" if f.name == "lam" else f.name: f
        for f in fields(cls)
        if f.name not in _NOT_KEYS[cls]
    }


def _coerce(f, value: str):
    if f.name in _LISTS:
        items = [_LISTS[f.name](v) for v in value.replace(",", " ").split()]
        if f.name == "theta0":  # one lengthscale is shared by every dimension
            return items[0] if len(items) == 1 else tuple(items)
        return items
    return (int if f.default is None else type(f.default))(value)


def _build(section: str, cls, items: dict, **extra):
    """A ``cls`` from a section's key/value strings; a bad key or value
    raises a ConfigError naming the section."""
    keys = _keys(cls)
    kwargs = {}
    for key, value in items.items():
        if key not in keys:
            raise ConfigError(f"[{section}]: unknown key {key!r}")
        try:
            kwargs[keys[key].name] = _coerce(keys[key], value)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {key}: {exc}") from exc
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI-style experiment document; empty text gives defaults."""
    parser = configparser.ConfigParser(default_section="__defaults__")
    try:
        # allow bare top-level keys by treating them as [experiment]
        if text.lstrip().startswith("["):
            parser.read_string(text)
        else:
            parser.read_string("[experiment]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    experiment: dict = {}
    algos = []
    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "experiment":
            experiment = items
        elif section.startswith("algorithm."):
            name = section[len("algorithm."):]
            algos.append(_build(section, AlgorithmConfig, items, name=name))
        else:
            raise ConfigError(f"unknown section [{section}]")
    return _build("experiment", ExperimentConfig, experiment, algorithms=algos)


def _write_section(out, section: str, config) -> None:
    out.write(f"[{section}]\n")
    for key, f in _keys(type(config)).items():
        value = getattr(config, f.name)
        if value is None:  # init_points left to its default, 2^d
            continue
        if f.name in _LISTS:
            kind = _LISTS[f.name]
            text = ", ".join(repr(kind(v)) for v in np.atleast_1d(value).tolist())
        else:
            text = value if isinstance(value, str) else repr(value)
        out.write(f"{key} = {text}\n")


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config up to formatting."""
    out = io.StringIO()
    _write_section(out, "experiment", config)
    for algo in config.algorithms:
        out.write("\n")
        _write_section(out, f"algorithm.{algo.name}", algo)
    return out.getvalue()


def make_objective(problem: str, seed: int) -> ObjectiveSpec:
    """Objective generator per problem family; seeded where random."""
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}")
    d = PROBLEMS[problem]
    if problem == "example_rkhs":
        return bump_linear_preset()
    if problem == "gp_sample":
        kernel = KernelSpec(lengthscales=np.full(d, 0.1))
        return make_gp_sample_function(kernel, grid_size=30, target_norm=4.0, seed=seed)
    # synthetic_4d
    kernel = KernelSpec(lengthscales=np.full(d, 0.3))
    return make_rkhs_function(kernel, m=30, target_norm=2.0, seed=seed)


def trace_header(dim: int) -> list[str]:
    return (
        ["iter"]
        + [f"x_{i}" for i in range(dim)]
        + ["y", "beta_sqrt", "g", "b", "h"]
        + [f"theta_{i}" for i in range(dim)]
        + ["simple_regret", "cumulative_regret"]
    )


def emit_trace(trace: RunTrace, path: str) -> None:
    """Write the trace CSV atomically (temp file + rename)."""
    rows = []
    for i in range(len(trace)):
        row = (
            [str(trace.iters[i])]
            + [_FLOAT_FMT % v for v in trace.X[i]]
            + [
                _FLOAT_FMT % trace.y[i],
                _FLOAT_FMT % trace.beta_sqrt[i],
                _FLOAT_FMT % trace.g[i],
                _FLOAT_FMT % trace.b[i],
                _FLOAT_FMT % trace.h[i],
            ]
            + [_FLOAT_FMT % v for v in trace.theta[i]]
            + [
                _FLOAT_FMT % trace.simple_regret[i],
                _FLOAT_FMT % trace.cumulative_regret[i],
            ]
        )
        rows.append(",".join(row))
    _write_atomic(path, "\n".join([",".join(trace_header(trace.dim))] + rows))


def _write_atomic(path: str, text: str) -> None:
    """Write text and a final newline to a temp file, then rename it to
    path, so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_trace(path: str) -> dict:
    """Parse a trace CSV back into named float columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.zeros((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def _seed_offset() -> int:
    value = os.environ.get("ABO_SEED_OFFSET", "0")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"ABO_SEED_OFFSET must be an integer, got {value!r}")


def _execute_run(args):
    """One (algorithm, seed) cell; module-level for process pools."""
    algo, seed, problem, iterations, init_points, out_dir = args
    from dataclasses import replace

    effective_seed = seed + _seed_offset()
    objective = make_objective(problem, effective_seed)
    config = replace(
        algo,
        seed=effective_seed,
        iterations=iterations,
        init_points=init_points,
    )
    trace = algorithms.run(objective, config)
    path = os.path.join(out_dir, f"{algo.name}_seed{seed}.csv")
    emit_trace(trace, path)
    if trace.aborted:
        raise RuntimeError(f"run {algo.name} seed {seed} aborted")
    return path


def _write_summary(name: str, paths: list[str], out_dir: str) -> str:
    """Per-iteration mean/std of simple and cumulative regret across seeds."""
    columns = [read_trace(p) for p in sorted(paths)]
    iters = columns[0]["iter"]
    simple = np.vstack([c["simple_regret"] for c in columns])
    cumulative = np.vstack([c["cumulative_regret"] for c in columns])
    lines = [
        f"# generator: {GENERATOR_NAME}",
        f"# seeds: {len(paths)}",
        "iter,simple_mean,simple_std,cumulative_mean,cumulative_std",
    ]
    for j, it in enumerate(iters):
        lines.append(
            ",".join(
                [str(int(it))]
                + [
                    _FLOAT_FMT % v
                    for v in (
                        simple[:, j].mean(),
                        simple[:, j].std(),
                        cumulative[:, j].mean(),
                        cumulative[:, j].std(),
                    )
                ]
            )
        )
    path = os.path.join(out_dir, f"{name}_summary.csv")
    _write_atomic(path, "\n".join(lines))
    return path


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> dict:
    """Run every (algorithm, seed) cell; returns a summary dict.

    Failures are recorded per run; the remaining runs still execute.
    """
    _seed_offset()  # a malformed ABO_SEED_OFFSET fails before any run
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (algo, seed, config.problem, config.iterations, config.init_points, out_dir)
        for algo in config.algorithms
        for seed in config.seeds
    ]
    results: dict = {"traces": {}, "failures": [], "summaries": {}}
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_try_run, jobs))
    else:
        outcomes = [_try_run(job) for job in jobs]
    for (algo, seed, *_), (path, error) in zip(jobs, outcomes):
        if error is not None:
            results["failures"].append((algo.name, seed, error))
        if path is not None:
            results["traces"].setdefault(algo.name, []).append(path)
    for name, paths in results["traces"].items():
        results["summaries"][name] = _write_summary(name, paths, out_dir)
    return results


def _try_run(args):
    try:
        return _execute_run(args), None
    except Exception as exc:  # noqa: BLE001 - run isolation is the contract
        return None, str(exc)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        if args.out:
            config.output_dir = args.out
        results = run_experiment(config, parallel=args.parallel)
    except OSError as exc:  # unreadable config or unwritable output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name, seed, error in results["failures"]:
        print(f"FAILED {name} seed={seed}: {error}", file=sys.stderr)
    n_runs = len(config.algorithms) * len(config.seeds)
    print(
        f"completed {n_runs - len(results['failures'])}/{n_runs} runs "
        f"into {config.output_dir}"
    )
    return 1 if results["failures"] else 0


def _cmd_list_presets(_args) -> int:
    print("problems:")
    for p in PROBLEMS:
        print(f"  {p}")
    print("algorithm variants:")
    for v in algorithms.POLICIES:
        print(f"  {v}")
    print(f"estimators: {', '.join(ESTIMATORS)}")
    print(f"map modes: {', '.join(algorithms.MAP_MODES)}")
    return 0


def _cmd_summarize(args) -> int:
    if not os.path.isdir(args.dir):
        print(f"error: no such directory: {args.dir}", file=sys.stderr)
        return 2
    paths = {}
    for entry in sorted(os.listdir(args.dir)):
        if entry.endswith(".csv") and "_seed" in entry:
            name = entry.rsplit("_seed", 1)[0]
            paths.setdefault(name, []).append(os.path.join(args.dir, entry))
    if not paths:
        print(f"no trace files in {args.dir}", file=sys.stderr)
        return 1
    status = 0
    for name, files in paths.items():
        rows = {}
        for p in files:
            try:
                rows[p] = len(read_trace(p)["iter"])
            except ValueError as exc:  # a row cut short by an interrupted copy
                # numpy appends advice on its own API after the first clause
                print(f"skipped {p}: {str(exc).split(';')[0]}", file=sys.stderr)
                status = 1
        if not rows:
            continue
        full = max(rows.values())
        for p, n in rows.items():
            if n < full:
                print(f"skipped {p}: {n} rows, expected {full}", file=sys.stderr)
                status = 1
        files = [p for p in rows if rows[p] == full]
        try:
            summary = _write_summary(name, files, args.dir)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cols = read_summary(summary)
        final = cols["simple_mean"][-1]
        print(
            f"{name}: {len(files)} seeds, final mean simple regret "
            f"{final:.6g} -> {summary}"
        )
    return status


def read_summary(path: str) -> dict:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abo", description="Adaptive Bayesian optimization benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-presets", help="list problems and variants")
    p_list.set_defaults(func=_cmd_list_presets)

    p_sum = sub.add_parser("summarize", help="recompute summaries for a directory")
    p_sum.add_argument("dir")
    p_sum.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
