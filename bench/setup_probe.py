"""Time one set-up in a fresh interpreter: import abo, build the objectives.

    PYTHONPATH=src python3 bench/setup_probe.py PROBLEM SEED [SEED ...]

Prints the seconds from before ``import abo`` until every objective is
built, the part of a run that comes before its first iteration.
"""

import sys
import time

start = time.perf_counter()
from abo import cli  # noqa: E402

problem = sys.argv[1]
objectives = [cli.make_objective(problem, int(seed)) for seed in sys.argv[2:]]
print(repr(time.perf_counter() - start))
