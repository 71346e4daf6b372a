"""Regenerate the golden trace CSVs that ``tests/test_golden.py`` compares.

Each case is one short run (15 iterations, seed 0) on a preset problem, or
on the objective a factory builds, written with
``cli.emit_trace``, after one ``#`` line naming the Python, NumPy and SciPy
versions that made it. Regenerate only for a declared trace change:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import functools
import os
import platform
import sys

import numpy
import scipy

from abo import algorithms, cli
from abo.algorithms import AlgorithmConfig
from abo.kernels import KernelSpec
from abo.objectives import make_gp_sample_function

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
_MADE_WITH = "# made with "

# name -> (preset problem or objective factory, algorithm settings); the
# small constant beta makes the adaptive schedule expand (g > 1) within the
# short runs
CASES = {
    f"agp_ucb_{estimator}_{map_mode}": (
        "example_rkhs",
        dict(variant="agp_ucb", estimator=estimator, map_mode=map_mode,
             beta_mode="empirical", beta_constant=0.5),
    )
    for estimator in ("regret_bound", "one_step")
    for map_mode in ("off", "combine_max", "combine_scale")
}
CASES["fixed_gp_ucb_combine_max"] = (
    "example_rkhs", dict(variant="fixed_gp_ucb", map_mode="combine_max")
)
CASES["fixed_gp_ucb_off"] = ("example_rkhs", dict(variant="fixed_gp_ucb"))
# theoretical beta reads the norm bound b*g^d*B0; small B0 and noise make
# the schedule expand within the short run
CASES["agp_ucb_regret_bound_theoretical"] = (
    "example_rkhs",
    dict(variant="agp_ucb", estimator="regret_bound", b0=0.5, noise_sigma=0.01),
)
# the one-step estimate under theoretical beta: its frozen sum varies from
# step to step, so the order in which it is added shows in h from step 8 on
CASES["agp_ucb_one_step_theoretical"] = (
    "example_rkhs", dict(variant="agp_ucb", estimator="one_step")
)
CASES["wang_shrink"] = ("example_rkhs", dict(variant="wang_shrink"))
# MAP over more than one lengthscale
CASES["agp_ucb_4d_combine_max"] = (
    "synthetic_4d",
    dict(variant="agp_ucb", map_mode="combine_max", theta0=0.5, init_points=4),
)
# the acquisition-bound path: 4-d scans under the default schedule, no MAP
CASES["agp_ucb_4d_off"] = (
    "synthetic_4d", dict(variant="agp_ucb", estimator="regret_bound", map_mode="off")
)
# a gp_sample objective; g reaches 3.5 with a new theta at every step
CASES["gp_sample_one_step_combine_max"] = (
    "gp_sample",
    dict(variant="agp_ucb", estimator="one_step", map_mode="combine_max",
         beta_mode="empirical", beta_constant=0.5),
)
# criterion 5's 2-d objective (a scrambled Sobol grid) and settings; h
# reaches 1.645, so it comes from a bracketed solve
CASES["agp_ucb_2d_regret_bound"] = (
    functools.partial(make_gp_sample_function, KernelSpec([0.1, 0.1]),
                      grid_size=56, target_norm=4.0, seed=0),
    dict(variant="agp_ucb", b0=0.25, noise_sigma=1e-4, init_points=4),
)
# 4-d scans under kernels that shrink step by step, and empty carried scans
CASES["wang_shrink_4d"] = ("synthetic_4d", dict(variant="wang_shrink", kappa=0.3))


def write_trace(name: str, path: str) -> None:
    problem, settings = CASES[name]
    objective = problem() if callable(problem) else cli.make_objective(problem, 0)
    config = AlgorithmConfig(name=name, iterations=15, seed=0, **settings)
    cli.emit_trace(algorithms.run(objective, config), path)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.csv")


def versions() -> str:
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}"
    )


def write_golden(name: str, path: str) -> None:
    """The case's trace after a ``# made with <versions>`` line."""
    write_trace(name, path)
    with open(path) as fh:
        trace = fh.read()
    with open(path, "w") as fh:
        fh.write(f"{_MADE_WITH}{versions()}\n{trace}")


def read_golden(name: str) -> tuple[str, bytes]:
    """The versions a golden was made with, and its trace bytes."""
    with open(golden_path(name), "rb") as fh:
        made_with, trace = fh.read().split(b"\n", 1)
    return made_with.decode().removeprefix(_MADE_WITH), trace


if __name__ == "__main__":
    out_dir = sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR
    for name in CASES:
        write_golden(name, os.path.join(out_dir, f"{name}.csv"))
        print(name)
