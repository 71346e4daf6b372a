"""Reference figures for bench/README.md: single runs and the sweep fault.

    python3 bench/reference.py

Times, at seed 0 and 100 iterations unless stated, the runs of the
re-anchor table in ROADMAP.md, then one `abo run` sweep (fixed GP-UCB,
Wang's shrink and one-step A-GP-UCB on example_rkhs, 4 seeds, 12 runs;
the algorithms of the dropped cli-sweep workload) at --parallel 1, at
--parallel 2, and at --parallel 2 with OPENBLAS_NUM_THREADS=1, reporting
wall and user+sys CPU seconds of the CLI and its workers. About four
minutes on a 2-core machine. Writes only under bench/_runs/reference/.
"""

import resource
import shutil
import subprocess
import sys
import time

import run as bench

sys.path.insert(0, str(bench.SRC))

from abo import algorithms, cli  # noqa: E402

SINGLE = [
    ("1-d agp_ucb regret_bound", "example_rkhs", {"variant": "agp_ucb"}, 100),
    ("same, with MAP combine_max", "example_rkhs",
     {"variant": "agp_ucb", "map_mode": "combine_max"}, 100),
    ("1-d one_step + MAP", "example_rkhs",
     {"variant": "agp_ucb", "estimator": "one_step", "map_mode": "combine_max"}, 100),
    ("1-d fixed", "example_rkhs", {"variant": "fixed_gp_ucb"}, 100),
    ("1-d wang", "example_rkhs", {"variant": "wang_shrink"}, 100),
    ("4-d regret_bound", "synthetic_4d", {"variant": "agp_ucb"}, 100),
    ("4-d + MAP, 60 iterations", "synthetic_4d",
     {"variant": "agp_ucb", "map_mode": "combine_max"}, 60),
]

# the dropped cli-sweep workload's algorithms, on example_rkhs
SWEEP = {"problem": "example_rkhs",
         "algorithms": [bench._algo("fixed", "fixed_gp_ucb"),
                        bench._algo("wang", "wang_shrink", kappa=0.1),
                        bench._algo("adaptive", "agp_ucb", "one_step")]}


def sweep(out, parallel, extra_env):
    """Wall and user+sys CPU seconds of one `abo run` and its pool workers."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "experiment.ini"
    config.write_text(bench._ini(SWEEP, [0, 1, 2, 3], out / "results"))
    env = bench._child_env(**extra_env)
    env.pop("ABO_SEED_OFFSET", None)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "abo.cli", "run", "--config", str(config),
         "--parallel", str(parallel)],
        env=env, stdout=subprocess.DEVNULL, timeout=600)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return wall, cpu, proc.returncode


def main():
    print("| Run | Wall s | CPU s |\n|---|---|---|")
    for label, problem, kwargs, iters in SINGLE:
        objective = cli.make_objective(problem, 0)
        config = algorithms.AlgorithmConfig(seed=0, iterations=iters, **kwargs)
        cpu0, start = time.process_time(), time.perf_counter()
        algorithms.run(objective, config)
        print(f"| {label} | {time.perf_counter() - start:.2f} | "
              f"{time.process_time() - cpu0:.2f} |", flush=True)
    out = bench.RUNS / "reference"
    for label, parallel, env in [
        ("sweep, 12 runs, --parallel 1", 1, {}),
        ("sweep, 12 runs, --parallel 2", 2, {}),
        ("sweep, 12 runs, --parallel 2, OPENBLAS_NUM_THREADS=1", 2,
         {"OPENBLAS_NUM_THREADS": "1"}),
    ]:
        wall, cpu, code = sweep(out, parallel, env)
        status = "" if code == 0 else f" (exit {code})"
        print(f"| {label}{status} | {wall:.1f} | {cpu:.1f} |", flush=True)


if __name__ == "__main__":
    main()
