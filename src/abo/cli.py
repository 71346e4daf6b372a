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
import multiprocessing
import os
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

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
# NAME_seedINT.csv, an algorithm's trace for one seed, which may be negative
_TRACE_FILE = "{}_seed{}.csv"
_TRACE_FILE_RE = re.compile(r"(.+)_seed-?[0-9]+\.csv")
# thread-count variables of the BLAS builds NumPy ships with
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
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
        names = [algo.name for algo in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigError(f"algorithm names must not repeat, got {names}")
        for algo in self.algorithms:
            section = f"algorithm.{algo.name}"
            # the name is the stem of the algorithm's files in output_dir
            if not algo.name or os.path.basename(algo.name) != algo.name:
                raise ConfigError(
                    f"algorithm name {algo.name!r} must be a nonempty file-name stem",
                    section,
                )
            try:
                algo.theta0_vector(PROBLEMS[self.problem])
            except ValueError as exc:
                raise ConfigError(f"algorithm {algo.name!r}: {exc}", section) from exc


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
        section = getattr(exc, "section", None) or section
        raise ConfigError(f"[{section}]: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI-style experiment document; empty text gives defaults."""
    def read(source):
        parser = configparser.ConfigParser(default_section="__defaults__")
        parser.read_string(source)
        return parser

    try:
        try:
            parser = read(text)
        except configparser.MissingSectionHeaderError:
            # bare top-level keys belong to [experiment]
            parser = read("[experiment]\n" + text)
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


def _csv_names(column: str, dim: int) -> list[str]:
    """A RunTrace column's CSV names: its own, but "iter" for iters and one
    "x_i" or "theta_i" per dimension for the vectors X and theta."""
    if column in ("X", "theta"):
        return [f"{column.lower()}_{i}" for i in range(dim)]
    return ["iter" if column == "iters" else column]


def trace_header(dim: int) -> list[str]:
    return [name for column in RunTrace.columns() for name in _csv_names(column, dim)]


def emit_trace(trace: RunTrace, path: str) -> None:
    """Write the trace CSV atomically (temp file + rename)."""
    names = {c: _csv_names(c, trace.dim) for c in RunTrace.columns()}
    table = np.column_stack([
        np.reshape(getattr(trace, c), (len(trace), len(names[c]))) for c in names
    ])
    _write_table(path, trace_header(trace.dim), table)


def _write_table(path: str, header: list, table, comments=()) -> None:
    """Write ``# `` comment lines, the header and one row per row of table
    (integer first column, the rest to 17 significant digits) atomically."""
    fmt = ",".join(["%d"] + [_FLOAT_FMT] * (len(header) - 1))
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    _write_atomic(path, "\n".join(lines + [fmt % tuple(row) for row in table]))


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


def read_table(path: str) -> dict:
    """Parse a trace or summary CSV into named float columns, skipping
    ``#`` and blank lines; a missing header or a row cut short raises
    ValueError."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header line")
    header, rows = lines[0].strip().split(","), lines[1:]
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.zeros((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def _write_summary(name: str, traces: list[dict], out_dir: str):
    """Per-iteration mean/std of simple and cumulative regret across the
    parsed traces, in the order of their sorted paths; returns the
    summary's path and table."""
    columns = [traces[0]["iter"]]
    for key in ("simple_regret", "cumulative_regret"):
        # seeds along the contiguous axis: each row reduces as one 1-d array
        by_seed = np.column_stack([t[key] for t in traces])
        columns += [by_seed.mean(axis=1), by_seed.std(axis=1)]
    table = np.column_stack(columns)
    path = os.path.join(out_dir, f"{name}_summary.csv")
    header = ["iter", "simple_mean", "simple_std", "cumulative_mean", "cumulative_std"]
    comments = [f"generator: {GENERATOR_NAME}", f"seeds: {len(traces)}"]
    _write_table(path, header, table, comments)
    return path, table


def _run_cell(cell):
    """One (algorithm, seed) run -> (trace path or None, error or None);
    module-level so that pool workers can unpickle it."""
    problem, config, path = cell
    try:
        trace = algorithms.run(make_objective(problem, config.seed), config)
        emit_trace(trace, path)
        if trace.aborted:
            raise RuntimeError(f"run {config.name} seed {config.seed} aborted")
        return path, None
    except Exception as exc:  # noqa: BLE001 - run isolation is the contract
        return None, str(exc)


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> dict:
    """Run every (algorithm, seed) cell; returns a summary dict.

    Failures are recorded per run; the remaining runs still execute.
    ``parallel > 1`` runs cells in ``spawn``-started workers, at most one
    per cell, with one BLAS thread each, unless the caller set one of
    ``_BLAS_THREADS``; ``os.environ`` is restored afterwards. Workers import ``abo`` afresh, so it must be
    installed or on ``PYTHONPATH`` (a ``sys.path`` edit does not reach them),
    and a calling script needs an ``if __name__ == "__main__":`` guard.
    A ``parallel`` below 1 raises ``ConfigError`` before any run.
    """
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    sizes = {"iterations": config.iterations, "init_points": config.init_points}
    cells = [
        (config.problem, replace(algo, seed=seed, **sizes),
         os.path.join(out_dir, _TRACE_FILE.format(algo.name, seed)))
        for algo in config.algorithms
        for seed in config.seeds
    ]
    if parallel > 1:
        unset = [key for key in _BLAS_THREADS if key not in os.environ]
        os.environ.update(dict.fromkeys(unset, "1"))
        try:
            spawn = multiprocessing.get_context("spawn")
            # a pool sized past a C int overflows multiprocessing's queue
            with ProcessPoolExecutor(min(parallel, len(cells)), mp_context=spawn) as pool:
                outcomes = list(pool.map(_run_cell, cells))
        finally:
            for key in unset:
                del os.environ[key]
    else:
        outcomes = [_run_cell(cell) for cell in cells]
    results: dict = {"traces": {}, "failures": [], "summaries": {}}
    for (_, algo, _), (path, error) in zip(cells, outcomes):
        if error is not None:
            results["failures"].append((algo.name, algo.seed, error))
        if path is not None:
            results["traces"].setdefault(algo.name, []).append(path)
    for name, paths in results["traces"].items():
        tables = [read_table(p) for p in sorted(paths)]
        results["summaries"][name] = _write_summary(name, tables, out_dir)[0]
    return results


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
    except UnicodeDecodeError as exc:  # a config that is not text
        print(f"error: cannot decode {args.config}: {exc}", file=sys.stderr)
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
        match = _TRACE_FILE_RE.fullmatch(entry)
        if match:
            paths.setdefault(match[1], []).append(os.path.join(args.dir, entry))
    if not paths:
        print(f"no trace files in {args.dir}", file=sys.stderr)
        return 1
    status = 0
    for name, files in paths.items():
        tables = {}
        for p in files:
            try:
                table = read_table(p)
                for key in ("iter", "simple_regret", "cumulative_regret"):
                    if key not in table:
                        raise ValueError(f"no {key!r} column")
                tables[p] = table
            except ValueError as exc:  # not a trace, or cut short by a copy
                # numpy appends advice on its own API after the first clause
                print(f"skipped {p}: {str(exc).split(';')[0]}", file=sys.stderr)
                status = 1
        if not tables:
            continue
        rows = {p: len(table["iter"]) for p, table in tables.items()}
        full = max(rows.values())
        if full == 0:
            print(f"skipped {name}: every trace has 0 rows", file=sys.stderr)
            status = 1
            continue
        for p, n in rows.items():
            if n < full:
                print(f"skipped {p}: {n} rows, expected {full}", file=sys.stderr)
                status = 1
        files = sorted(p for p in rows if rows[p] == full)
        try:
            summary, table = _write_summary(name, [tables[p] for p in files], args.dir)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        final = table[-1, 1]  # simple_mean
        print(
            f"{name}: {len(files)} seeds, final mean simple regret "
            f"{final:.6g} -> {summary}"
        )
    return status


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
